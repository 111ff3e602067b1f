package extract

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ace/internal/cif"
	"ace/internal/guard"
)

// TestDeepHierarchy: a 500-level chain of single-call symbols must
// instantiate without blowing the stack or the heap.
func TestDeepHierarchy(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("DS 1; L ND; B 100 100 0 0; DF;\n")
	const depth = 500
	for i := 2; i <= depth; i++ {
		fmt.Fprintf(&sb, "DS %d; C %d T 10 10; DF;\n", i, i-1)
	}
	fmt.Fprintf(&sb, "C %d;\nE\n", depth)
	res, err := String(sb.String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Netlist.Nets) != 1 {
		t.Fatalf("nets %d", len(res.Netlist.Nets))
	}
	if res.Frontend.CellsExpanded != depth {
		t.Fatalf("expanded %d, want %d", res.Frontend.CellsExpanded, depth)
	}
}

// TestWideFanout: one symbol instantiated 10000 times.
func TestWideFanout(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("DS 1; L NM; B 100 100 0 0; DF;\n")
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&sb, "C 1 T %d %d;\n", (i%100)*200, (i/100)*200)
	}
	sb.WriteString("E\n")
	res, err := String(sb.String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The 100×100 grid of 100-unit boxes at 200 pitch: all disjoint.
	if len(res.Netlist.Nets) != 10000 {
		t.Fatalf("nets %d", len(res.Netlist.Nets))
	}
}

// TestHugeCoordinates: far-flung geometry must not overflow.
func TestHugeCoordinates(t *testing.T) {
	src := `
L ND; B 1000 1000 2000000000 2000000000;
L NP; B 3000 200 2000000000 2000000000;
L NM; B 1000 1000 -2000000000 -2000000000;
E
`
	res, err := String(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Netlist.Devices) != 1 {
		t.Fatalf("devices %d", len(res.Netlist.Devices))
	}
}

// TestManyTinyNets: a large all-disjoint design stresses the
// finalisation path.
func TestManyTinyNets(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("L NM;\n")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&sb, "B 50 50 %d %d;\n", (i%100)*200, (i/100)*200)
	}
	sb.WriteString("E\n")
	res, err := String(sb.String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Netlist.Nets) != 5000 {
		t.Fatalf("nets %d", len(res.Netlist.Nets))
	}
}

// TestZeroHeightGeometryDropped: degenerate boxes vanish silently.
func TestZeroHeightGeometryDropped(t *testing.T) {
	res, err := String("L ND; B 0 100 0 0; B 100 0 0 0; B 100 100 500 500;\nE\n", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Netlist.Nets) != 1 {
		t.Fatalf("nets %d", len(res.Netlist.Nets))
	}
}

// TestSharedSymbolAcrossLayers: the same symbol called under different
// sticky layers keeps per-item layers fixed at definition time.
func TestStickyLayerInstantiation(t *testing.T) {
	src := `
DS 1; B 100 100 0 0; DF;
L ND;
C 1;
L NP;
C 1 T 500 0;
E
`
	f, err := cif.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	// The symbol body was parsed before any L command, so its box was
	// dropped with a warning at parse time; the design ends up with no
	// geometry at all and extraction reports that cleanly.
	if len(f.Warnings) == 0 {
		t.Fatal("expected an unlayered-geometry warning")
	}
	if _, err := File(f, Options{}); err == nil {
		t.Fatal("expected the empty-design error")
	}
}

// hugeDecompositions are a few bytes of CIF each describing one shape
// that decomposes into ~10^8 grid bands: a round flash (the octagon
// polygon), a diagonal polygon and a diagonal wire, at the top level
// and inside a called symbol.
var hugeDecompositions = []string{
	"L NP; R 900000000 0 0;",
	"L NP; P 0 0 10 900000000 20 0;",
	"L NP; W 20 0 0 900000000 900000000;",
	"DS 1; L NP; R 900000000 0 0; DF; C 1 R 0 1;",
}

// TestHugeDecompositionIsLimitError: under the budgets a service sets,
// each front end must reject the shape with a *guard.LimitError before
// allocating its bands; the process used to die with "fatal error: out
// of memory", which no recover wrapper can catch.
func TestHugeDecompositionIsLimitError(t *testing.T) {
	lim := guard.Limits{MaxBoxes: 20000, MaxMemBytes: 16 << 20}
	shapes := []Options{
		{Limits: lim},
		{Lenient: true, Limits: lim},
		{Workers: 2, Limits: lim},
		{FlattenWorkers: 2, Limits: lim},
		{FlattenWorkers: 2, Workers: 2, Limits: lim},
		{Limits: guard.Limits{MaxMemBytes: 16 << 20}},
	}
	for _, src := range hugeDecompositions {
		for _, opt := range shapes {
			t0 := time.Now()
			_, err := String(src, opt)
			var le *guard.LimitError
			if !errors.As(err, &le) {
				t.Fatalf("%q %+v: err %v, want *guard.LimitError", src, opt, err)
			}
			if d := time.Since(t0); d > time.Second {
				t.Fatalf("%q %+v: rejected after %v, want under 1s", src, opt, d)
			}
		}
	}
}
