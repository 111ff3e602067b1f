package hext

import (
	"runtime"
	"testing"

	"ace/internal/gen"
)

// TestFlattenAllocLinear pins the hierarchical back end's memory
// complexity: doubling a chip must not much more than double the bytes
// one extraction allocates. Bytes, not allocation counts, are measured
// because an exact-size grow per leaf instance costs one allocation
// either way but copies the whole builder each time — that made
// flatten O(N²) and showed as ~4× bytes per doubling. Amortised growth
// gives ~2×. The check is deterministic: TotalAlloc counts bytes, not
// time, and one worker fixes the allocation sequence.
func TestFlattenAllocLinear(t *testing.T) {
	const maxRatio = 2.5
	scales := []float64{0.125, 0.25, 0.5}
	for _, name := range []string{"riscb", "testram", "schip2"} {
		c, _ := gen.ChipByName(name)
		var prev uint64
		for i, scale := range scales {
			w := c.Build(scale)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res, err := Extract(w.File, Options{Workers: 1})
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatalf("%s@%g: %v", name, scale, err)
			}
			if got := len(res.Netlist.Devices); got != w.WantDevices {
				t.Fatalf("%s@%g: devices %d, want %d", name, scale, got, w.WantDevices)
			}
			bytes := m1.TotalAlloc - m0.TotalAlloc
			t.Logf("%s@%g: %d devices, %d bytes allocated", name, scale, w.WantDevices, bytes)
			if i > 0 {
				if r := float64(bytes) / float64(prev); r > maxRatio {
					t.Errorf("%s: scale %g→%g grew allocated bytes %.2f× (%d→%d), want ≤ %.1f×",
						name, scales[i-1], scale, r, prev, bytes, maxRatio)
				}
			}
			prev = bytes
		}
	}
}
