//go:build !race

// Excluded under -race: the race runtime adds its own allocations.

package wirelist

import (
	"testing"

	"ace/internal/extract"
	"ace/internal/gen"
)

// TestAppendToAllocs pins the encoder at zero allocations: rendering a
// chip into a buffer already large enough for it allocates nothing.
func TestAppendToAllocs(t *testing.T) {
	c, _ := gen.ChipByName("testram")
	res, err := extract.File(c.Build(gen.BenchScale).File, extract.Options{KeepGeometry: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []bool{false, true} {
		opt := Options{Geometry: g}
		buf, _ := AppendTo(nil, res.Netlist, opt)
		avg := testing.AllocsPerRun(10, func() {
			buf, _ = AppendTo(buf[:0], res.Netlist, opt)
		})
		if avg != 0 {
			t.Errorf("geometry=%v: AppendTo into a pre-sized buffer makes %.1f allocs/op, want 0", g, avg)
		}
	}
}
