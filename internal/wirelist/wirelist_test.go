package wirelist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ace/internal/extract"
	"ace/internal/gen"
	"ace/internal/geom"
	"ace/internal/netlist"
	"ace/internal/tech"
)

func extractInverter(t *testing.T, keepGeom bool) *netlist.Netlist {
	t.Helper()
	res, err := extract.File(gen.Inverter(), extract.Options{KeepGeometry: keepGeom})
	if err != nil {
		t.Fatal(err)
	}
	res.Netlist.Name = "inverter.cif"
	return res.Netlist
}

func TestWriteStructure(t *testing.T) {
	nl := extractInverter(t, false)
	text := Format(nl, Options{})
	for _, want := range []string{
		`(DefPart "inverter.cif"`,
		"(DefPart nEnh (Export Source Gate Drain))",
		"(DefPart nDep (Export Source Gate Drain))",
		"(Part nEnh",
		"(Part nDep",
		"(Channel (Length 400) (Width 2800)",
		"(Channel (Length 1400) (Width 400)",
		"VDD",
		"GND",
		"INP",
		"OUT",
		"(Local",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q\n%s", want, text)
		}
	}
	// No geometry clauses without the option ("Under normal operation
	// this is suppressed").
	if strings.Contains(text, "CIF") {
		t.Error("geometry emitted without the option")
	}
}

func TestWriteGeometry(t *testing.T) {
	nl := extractInverter(t, true)
	text := Format(nl, Options{Geometry: true})
	if !strings.Contains(text, "L NX; B L400 W1200 C-600 -1400;") {
		t.Errorf("enh channel geometry missing (Figure 3-4 form)\n%s", text)
	}
	if !strings.Contains(text, "L NM;") || !strings.Contains(text, "L ND;") {
		t.Error("net geometry missing")
	}
}

func TestRoundTrip(t *testing.T) {
	nl := extractInverter(t, false)
	text := Format(nl, Options{})
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	eq, reason := netlist.Equivalent(nl, back)
	if !eq {
		t.Fatalf("round trip not equivalent: %s", reason)
	}
	// Names and locations must also survive.
	for _, nm := range []string{"VDD", "GND", "INP", "OUT"} {
		i, ok := back.NetByName(nm)
		if !ok {
			t.Fatalf("net %s lost", nm)
		}
		j, _ := nl.NetByName(nm)
		if back.Nets[i].Location != nl.Nets[j].Location {
			t.Errorf("net %s location %v vs %v", nm, back.Nets[i].Location, nl.Nets[j].Location)
		}
	}
	if back.Name != "inverter.cif" {
		t.Errorf("name %q", back.Name)
	}
}

func TestRoundTripWithGeometry(t *testing.T) {
	nl := extractInverter(t, true)
	text := Format(nl, Options{Geometry: true})
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if eq, reason := netlist.Equivalent(nl, back); !eq {
		t.Fatalf("not equivalent: %s", reason)
	}
	// Net geometry must survive the text exactly (per layer, as
	// regions) — the R/C post-processor depends on it.
	for i := range nl.Nets {
		name := nl.Nets[i].Name(i)
		j, ok := back.NetByName(name)
		if !ok {
			t.Fatalf("net %s lost", name)
		}
		for l := tech.Layer(0); int(l) < tech.NumLayers; l++ {
			var a, b []geom.Rect
			for _, g := range nl.Nets[i].Geometry {
				if g.Layer == l {
					a = append(a, g.Rect)
				}
			}
			for _, g := range back.Nets[j].Geometry {
				if g.Layer == l {
					b = append(b, g.Rect)
				}
			}
			if !geom.SameRegion(a, b) {
				t.Fatalf("net %s layer %v geometry changed:\n%v\nvs\n%v", name, l, a, b)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unbalanced open":    `(DefPart "x"`,
		"unbalanced close":   `(DefPart "x"))`,
		"no toplevel":        ``,
		"two toplevel":       `(DefPart "a")(DefPart "b")`,
		"not defpart":        `(Foo "x")`,
		"unknown form":       `(DefPart "x" (Bogus 1))`,
		"bad part type":      `(DefPart "x" (Part nXyz (T Gate N1) (T Source N2) (T Drain N3)))`,
		"missing terminals":  `(DefPart "x" (Part nEnh (T Gate N1)))`,
		"unterminated quote": `(DefPart "x`,
	}
	for name, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestParseMinimal(t *testing.T) {
	src := `
(DefPart "mini"
(DefPart nEnh (Export Source Gate Drain))
(Part nEnh (InstName D0) (Location 10 20)
 (T Gate NA) (T Source NB) (T Drain NC)
 (Channel (Length 200) (Width 400)))
(Net NA IN (Location 0 0))
(Net NB OUT (Location 1 1))
(Net NC GND (Location 2 2))
(Local NA NB NC ))
`
	nl, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Devices) != 1 || len(nl.Nets) != 3 {
		t.Fatalf("parsed %d devices %d nets", len(nl.Devices), len(nl.Nets))
	}
	d := nl.Devices[0]
	if d.Length != 200 || d.Width != 400 {
		t.Fatalf("L/W %d/%d", d.Length, d.Width)
	}
	if i, ok := nl.NetByName("OUT"); !ok || i != d.Source {
		t.Fatalf("source net wrong")
	}
}

// refWrite is the original fmt-based writer, one Fprintf per token,
// kept as the oracle the append-based encoder must match byte for byte.
func refWrite(w io.Writer, nl *netlist.Netlist, opt Options) error {
	ew := &refErrWriter{w: w}
	name := nl.Name
	if name == "" {
		name = "chip"
	}
	ew.printf("(DefPart %q\n", name)
	ew.printf("(DefPart nEnh (Export Source Gate Drain))\n")
	ew.printf("(DefPart nDep (Export Source Gate Drain))\n")
	ew.printf("(DefPart nCap (Export Source Gate Drain))\n")

	netName := func(i int) string { return fmt.Sprintf("N%d", i) }

	for i, d := range nl.Devices {
		ew.printf("(Part %s (InstName D%d) (Location %d %d)\n",
			d.Type, i, d.Location.X, d.Location.Y)
		ew.printf(" (T Gate %s) (T Source %s) (T Drain %s)\n",
			netName(d.Gate), netName(d.Source), netName(d.Drain))
		ew.printf(" (Channel (Length %d) (Width %d)", d.Length, d.Width)
		if opt.Geometry && len(d.Geometry) > 0 {
			ew.printf("\n  ( CIF \"")
			for _, r := range d.Geometry {
				ew.printf(" L NX; B L%d W%d C%d %d;", r.W(), r.H(), r.Center().X, r.Center().Y)
			}
			ew.printf(" \")")
		}
		ew.printf("))\n")
	}

	for i := range nl.Nets {
		n := &nl.Nets[i]
		ew.printf("(Net %s", netName(i))
		for _, nm := range n.Names {
			ew.printf(" %s", nm)
		}
		ew.printf(" (Location %d %d)", n.Location.X, n.Location.Y)
		if opt.Geometry && len(n.Geometry) > 0 {
			ew.printf("\n ( CIF \"")
			for _, g := range n.Geometry {
				r := g.Rect
				ew.printf(" L %s; B L%d W%d C%d %d;",
					g.Layer.CIFName(), r.W(), r.H(), r.Center().X, r.Center().Y)
			}
			ew.printf(" \")")
		}
		ew.printf(")\n")
	}

	ew.printf("(Local")
	for i := range nl.Nets {
		ew.printf(" %s", netName(i))
	}
	ew.printf(" ))\n")
	return ew.err
}

type refErrWriter struct {
	w   io.Writer
	err error
}

func (e *refErrWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func refFormat(nl *netlist.Netlist, opt Options) []byte {
	var buf bytes.Buffer
	_ = refWrite(&buf, nl, opt)
	return buf.Bytes()
}

// countingWriter records how many Write calls reach it.
type countingWriter struct {
	bytes.Buffer
	calls int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.calls++
	return c.Buffer.Write(p)
}

// checkOracle asserts that AppendTo, Write and Format each produce
// exactly the reference writer's bytes.
func checkOracle(t *testing.T, what string, nl *netlist.Netlist, opt Options) {
	t.Helper()
	want := refFormat(nl, opt)
	got, err := AppendTo(nil, nl, opt)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: AppendTo differs from the reference (err %v)\n%s", what, err, firstDiff(got, want))
	}
	// Appending keeps what dst already holds.
	prefix := []byte("kept;")
	got, _ = AppendTo(prefix, nl, opt)
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%s: AppendTo onto a non-empty dst\n%s", what, firstDiff(got[len(prefix):], want))
	}
	var cw countingWriter
	if err := Write(&cw, nl, opt); err != nil || !bytes.Equal(cw.Bytes(), want) {
		t.Fatalf("%s: Write differs from the reference (err %v)\n%s", what, err, firstDiff(cw.Bytes(), want))
	}
	// One Write per chunk, not per token.
	if max := len(want)/chunkSize + 1; cw.calls > max {
		t.Fatalf("%s: Write made %d calls for %d bytes, want ≤ %d", what, cw.calls, len(want), max)
	}
	if s := Format(nl, opt); s != string(want) {
		t.Fatalf("%s: Format differs from the reference\n%s", what, firstDiff([]byte(s), want))
	}
}

// firstDiff describes where two renderings part.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Sprintf("at byte %d (len %d vs %d):\n got %q\nwant %q",
		i, len(got), len(want), got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

func TestOracleCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "extract", "testdata", "*.cif"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus designs (%v)", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		res, err := extract.String(string(src), extract.Options{KeepGeometry: true})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		res.Netlist.Name = filepath.Base(path)
		for _, g := range []bool{false, true} {
			checkOracle(t, fmt.Sprintf("%s geometry=%v", path, g), res.Netlist, Options{Geometry: g})
		}
	}
}

func TestOracleChips(t *testing.T) {
	for _, c := range gen.Chips {
		res, err := extract.File(c.Build(gen.BenchScale).File, extract.Options{KeepGeometry: true})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		res.Netlist.Name = c.Name + ".cif"
		for _, g := range []bool{false, true} {
			checkOracle(t, fmt.Sprintf("%s geometry=%v", c.Name, g), res.Netlist, Options{Geometry: g})
		}
	}
}

// handNetlist builds a small netlist around the given names, with
// geometry on every net and device and one device of each given type.
func handNetlist(name string, netNames []string, types ...tech.DeviceType) *netlist.Netlist {
	nl := &netlist.Netlist{Name: name}
	for i, nm := range netNames {
		nl.Nets = append(nl.Nets, netlist.Net{
			Names:    []string{nm},
			Location: geom.Point{X: int64(-i * 7), Y: int64(i) * 1 << 40},
			Geometry: []netlist.LayerRect{
				{Layer: tech.Layer(i % (tech.NumLayers + 2)), Rect: geom.R(-int64(i), 3, int64(i)+5, 9)},
			},
		})
	}
	nl.Nets = append(nl.Nets, netlist.Net{}) // unnamed, no geometry
	for i, ty := range types {
		nl.Devices = append(nl.Devices, netlist.Device{
			Type: ty, Gate: i % len(nl.Nets), Source: 0, Drain: len(nl.Nets) - 1,
			Length: -int64(i), Width: 1<<62 + int64(i),
			Location: geom.Point{X: -1 << 63, Y: 1<<63 - 1},
			Geometry: []geom.Rect{geom.R(0, 0, 2, 2), geom.R(-5, -5, -1, -3)},
		})
	}
	return nl
}

func TestOracleHandMade(t *testing.T) {
	odd := []string{`q"uote`, `back\slash`, "tab\tand\nnewline", "πλ∑", "\xff\xfebad", "", "\x00", "\u2028", "plain"}
	types := []tech.DeviceType{tech.Enhancement, tech.Depletion, tech.Capacitor, tech.DeviceType(7), tech.DeviceType(-3)}
	for _, name := range append(odd, "chip.cif") {
		nl := handNetlist(name, odd, types...)
		for _, g := range []bool{false, true} {
			checkOracle(t, fmt.Sprintf("name %q geometry=%v", name, g), nl, Options{Geometry: g})
		}
	}
	checkOracle(t, "empty netlist", &netlist.Netlist{}, Options{Geometry: true})
}

// FuzzAppendTo renders fuzzer-shaped netlists through the encoder and
// the reference writer and requires identical bytes.
func FuzzAppendTo(f *testing.F) {
	f.Add("chip", "VDD", int8(0), int64(3), int64(-4), true)
	f.Add(`"q"`, "π\xff", int8(9), int64(-1<<63), int64(1<<63-1), false)
	f.Add("", "", int8(-1), int64(0), int64(0), true)
	f.Fuzz(func(t *testing.T, name, netName string, ty int8, x, y int64, g bool) {
		nl := handNetlist(name, strings.Split(netName, ","), tech.DeviceType(ty), tech.Enhancement)
		nl.Nets[0].Location = geom.Point{X: x, Y: y}
		nl.Nets[0].Geometry = append(nl.Nets[0].Geometry, netlist.LayerRect{Layer: tech.Layer(ty), Rect: geom.R(x/2, y/2, x/2+x%7, y/2+y%5)})
		nl.Devices[0].Geometry = append(nl.Devices[0].Geometry, geom.R(y/3, x/3, y/3+1, x/3+1))
		want := refFormat(nl, Options{Geometry: g})
		got, err := AppendTo(nil, nl, Options{Geometry: g})
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendTo differs from the reference (err %v)\n%s", err, firstDiff(got, want))
		}
	})
}

// failAt accepts k bytes, then fails every write, counting the writes
// that arrive after the first failure.
type failAt struct {
	k, n   int
	got    bytes.Buffer
	failed bool
	after  int
}

var errFailAt = errors.New("disk full")

func (f *failAt) Write(p []byte) (int, error) {
	if f.failed {
		f.after++
	}
	if f.n+len(p) <= f.k {
		f.n += len(p)
		f.got.Write(p)
		return len(p), nil
	}
	m := f.k - f.n
	f.n = f.k
	f.got.Write(p[:m])
	f.failed = true
	return m, errFailAt
}

func TestWriteReturnsWriterError(t *testing.T) {
	c, _ := gen.ChipByName("riscb")
	res, err := extract.File(c.Build(gen.BenchScale).File, extract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := refFormat(res.Netlist, Options{})
	if len(want) < 3*chunkSize {
		t.Fatalf("riscb renders %d bytes; want several chunks", len(want))
	}
	for _, k := range []int{0, 1, chunkSize - 1, chunkSize, chunkSize + 1, 2*chunkSize + 17, len(want) - 1, len(want), len(want) + 1} {
		w := &failAt{k: k}
		err := Write(w, res.Netlist, Options{})
		if k < len(want) {
			if !errors.Is(err, errFailAt) {
				t.Fatalf("fail at byte %d of %d: Write returned %v", k, len(want), err)
			}
		} else if err != nil {
			t.Fatalf("fail at byte %d of %d: Write returned %v", k, len(want), err)
		}
		if n := min(k, len(want)); !bytes.Equal(w.got.Bytes(), want[:n]) {
			t.Fatalf("fail at byte %d: accepted bytes are not the output's prefix", k)
		}
		if w.after > 0 {
			t.Fatalf("fail at byte %d: %d writes after the first error", k, w.after)
		}
	}
}
