package hext

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ace/internal/gen"
)

func TestHierarchicalWirelistFourInverters(t *testing.T) {
	res, err := Extract(gen.FourInverters(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	text := res.HierarchicalString()
	for _, want := range []string{
		"(DefPart nEnh (Exports G S D))",
		"(DefPart Window",
		"(Part Window",
		"(LocOffset",
		"(Name Top)",
		"(Exports",
		"(Local",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("wirelist missing %q:\n%s", want, truncate(text, 2000))
		}
	}
	// Sharing: the inverter window must appear as ONE DefPart but
	// multiple Parts. Count DefParts vs Parts.
	defs := strings.Count(text, "(DefPart Window")
	parts := strings.Count(text, "(Part Window")
	if parts <= defs {
		t.Fatalf("no window sharing visible: %d defs, %d parts", defs, parts)
	}
	// Net equivalences across seams must appear.
	if !strings.Contains(text, "/N") {
		t.Fatal("no cross-window net references")
	}
}

func TestHierarchicalWirelistPartials(t *testing.T) {
	// Splitting the mesh cuts channels: the wirelist must carry
	// partial-transistor clauses. (Mesh(5)'s width is 22λ, so the
	// midpoint cut lands inside the middle diffusion column and slices
	// its five channels.)
	res, err := Extract(gen.Mesh(5).File, Options{MaxLeafItems: 3})
	if err != nil {
		t.Fatal(err)
	}
	text := res.HierarchicalString()
	if !strings.Contains(text, "TPart") {
		t.Fatalf("no partial transistors in wirelist:\n%s", truncate(text, 2000))
	}
}

func TestHierarchicalWirelistNames(t *testing.T) {
	res, err := Extract(gen.InverterChain(2).File, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = res.HierarchicalString() // names live in overlay labels (flatten-time), so
	// the hierarchical text carries windows only; ensure it renders
	// without error and the flattened netlist has the names.
	for _, nm := range []string{"IN", "OUT", "VDD", "GND"} {
		if _, ok := res.Netlist.NetByName(nm); !ok {
			t.Fatalf("net %s missing from flattened result", nm)
		}
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// chunkWriter counts the writes reaching it, failing them all when
// fail is set.
type chunkWriter struct {
	bytes.Buffer
	calls int
	fail  bool
}

var errChunk = errors.New("disk full")

func (c *chunkWriter) Write(p []byte) (int, error) {
	c.calls++
	if c.fail {
		return 0, errChunk
	}
	return c.Buffer.Write(p)
}

// TestWriteHierarchicalBuffered pins the hierarchical writer's I/O: an
// unbuffered writer gets a few 64 KiB writes, not one per token, and a
// failing writer's error comes back.
func TestWriteHierarchicalBuffered(t *testing.T) {
	c, _ := gen.ChipByName("testram")
	res, err := Extract(c.Build(gen.BenchScale).File, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := res.HierarchicalString()
	var w chunkWriter
	if err := res.WriteHierarchical(&w); err != nil || w.String() != want {
		t.Fatalf("WriteHierarchical: err %v, %d bytes, want %d identical bytes", err, w.Len(), len(want))
	}
	if max := len(want)/(64<<10) + 1; w.calls > max {
		t.Fatalf("%d writes for %d bytes, want ≤ %d", w.calls, len(want), max)
	}
	// A design this size reaches w only through the final Flush, so
	// this is the check that its error is not dropped.
	if err := res.WriteHierarchical(&chunkWriter{fail: true}); !errors.Is(err, errChunk) {
		t.Fatalf("failing writer: got %v, want %v", err, errChunk)
	}
}
