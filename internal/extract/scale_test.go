package extract

import (
	"runtime"
	"testing"

	"ace/internal/gen"
	"ace/internal/tile"
	"ace/internal/wirelist"
)

// TestFlatAllocLinear pins the flat chain's memory complexity: doubling
// a chip must not much more than double the bytes one extraction plus
// its wirelist rendering allocates. It runs the lazy heap front end and
// a serial sweep, the path `ace chip.cif` takes, and measures bytes
// (TotalAlloc), which are deterministic, so host load cannot flake it.
// Amortised growth gives ~2× per doubling; a per-box or per-net copy
// of a growing structure shows as ~4×.
func TestFlatAllocLinear(t *testing.T) {
	checkAllocLinear(t, func(t *testing.T, w gen.Workload) func() (*Result, error) {
		return func() (*Result, error) { return File(w.File, Options{Workers: 1}) }
	})
}

// TestBandsAllocLinear is TestFlatAllocLinear for the band-parallel
// path (`ace -workers 2`): the drained box list, the band partition
// and the seam stitch must all grow linearly too.
func TestBandsAllocLinear(t *testing.T) {
	checkAllocLinear(t, func(t *testing.T, w gen.Workload) func() (*Result, error) {
		return func() (*Result, error) { return File(w.File, Options{Workers: 2}) }
	})
}

// TestTilesAllocLinear is TestFlatAllocLinear for the out-of-core path:
// each chip is packed as cifpack packs it (outside the measurement),
// then extracted from the tile file.
func TestTilesAllocLinear(t *testing.T) {
	checkAllocLinear(t, func(t *testing.T, w gen.Workload) func() (*Result, error) {
		r := packFile(t, w.File, tile.DefaultGrid, tile.DefaultGrid)
		return func() (*Result, error) { return Tiles(r, Options{}) }
	})
}

// checkAllocLinear runs one extraction path over riscb, testram and
// schip2 at scales 0.125, 0.25 and 0.5 and bounds the growth of the
// bytes allocated by the extraction plus its wirelist rendering at
// 2.5× per doubling. prepare does the path's unmeasured set-up and
// returns the extraction to measure.
func checkAllocLinear(t *testing.T, prepare func(*testing.T, gen.Workload) func() (*Result, error)) {
	const maxRatio = 2.5
	scales := []float64{0.125, 0.25, 0.5}
	for _, name := range []string{"riscb", "testram", "schip2"} {
		c, _ := gen.ChipByName(name)
		var prev uint64
		for i, scale := range scales {
			w := c.Build(scale)
			extract := prepare(t, w)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res, err := extract()
			var out []byte
			if err == nil {
				out, err = wirelist.AppendTo(nil, res.Netlist, wirelist.Options{})
			}
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatalf("%s@%g: %v", name, scale, err)
			}
			if got := len(res.Netlist.Devices); got != w.WantDevices {
				t.Fatalf("%s@%g: devices %d, want %d", name, scale, got, w.WantDevices)
			}
			bytes := m1.TotalAlloc - m0.TotalAlloc
			t.Logf("%s@%g: %d devices, %d wirelist bytes, %d bytes allocated", name, scale, w.WantDevices, len(out), bytes)
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
