//go:build !race

// Excluded under -race: the race runtime adds its own allocations,
// which would make the pinned budgets meaningless.

package extract

import (
	"os"
	"path/filepath"
	"testing"

	"ace/internal/gen"
	"ace/internal/wirelist"
)

// warmCorpusSource loads one small corpus design for the parse-included
// budget.
func warmCorpusSource() (string, error) {
	b, err := os.ReadFile(filepath.Join("testdata", "polygons.cif"))
	return string(b), err
}

// Steady-state allocation budgets for a warm Engine. The floor is not
// zero: Finish must allocate the output netlist itself (the Nets and
// Devices slices, one shared terminal backing array, the Result) —
// those allocations hand ownership to the caller and cannot be pooled
// without breaking the isolation contract. Everything else — parse
// arenas, front-end streams, sweeper interval lists, builder arenas,
// sort scratch — is pooled, which is the difference between the cold
// path's hundreds of allocations per run and these numbers.
//
// Measured on the pinned toolchain: 11 allocs/op warm vs 244 cold for
// warmAllocChip (a 95% reduction). The budgets below carry ~3x slack
// so routine toolchain/runtime drift does not trip them; a regression
// that re-introduces per-run scratch (a forgotten pool, a closure in a
// hot sort) overshoots them by an order of magnitude.
const (
	warmAllocBudget     = 32
	warmAllocChip       = "cherry"
	warmAllocChipScale  = 0.05
	warmAllocWarmupRuns = 3
)

// TestWarmEngineAllocs pins the steady-state allocs/op of warm Engine
// extraction — the regression test for the amortized hot path.
func TestWarmEngineAllocs(t *testing.T) {
	c, ok := gen.ChipByName(warmAllocChip)
	if !ok {
		t.Fatalf("no %s chip", warmAllocChip)
	}
	w := c.Build(warmAllocChipScale)
	eng := NewEngine()
	for i := 0; i < warmAllocWarmupRuns; i++ {
		if _, err := eng.File(w.File, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := eng.File(w.File, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm Engine: %.1f allocs/op (budget %d)", avg, warmAllocBudget)
	if avg > warmAllocBudget {
		t.Errorf("warm Engine extraction allocates %.1f allocs/op, budget %d — a pool stopped being used on the hot path",
			avg, warmAllocBudget)
	}
}

// TestWarmEngineAllocsWirelist adds the rendering a warm caller does
// (aced, perfbench) to the warm extraction: wirelist.AppendTo into the
// Engine's pooled output buffer. The encoder allocates nothing, so the
// extraction's budget holds for the pair.
func TestWarmEngineAllocsWirelist(t *testing.T) {
	c, ok := gen.ChipByName(warmAllocChip)
	if !ok {
		t.Fatalf("no %s chip", warmAllocChip)
	}
	w := c.Build(warmAllocChipScale)
	eng := NewEngine()
	run := func() {
		res, err := eng.File(w.File, Options{})
		if err != nil {
			t.Fatal(err)
		}
		out, _ := wirelist.AppendTo(eng.GetOutBuf(), res.Netlist, wirelist.Options{})
		eng.PutOutBuf(out)
	}
	for i := 0; i < warmAllocWarmupRuns; i++ {
		run()
	}
	avg := testing.AllocsPerRun(10, run)
	t.Logf("warm Engine + AppendTo: %.1f allocs/op (budget %d)", avg, warmAllocBudget)
	if avg > warmAllocBudget {
		t.Errorf("warm extraction plus wirelist rendering allocates %.1f allocs/op, budget %d", avg, warmAllocBudget)
	}
}

// TestWarmEngineAllocsParse covers the full warm path including the
// pooled-arena CIF parse (Engine.String rather than Engine.File). The
// parse adds the File skeleton and reader state on top of the sweep.
func TestWarmEngineAllocsParse(t *testing.T) {
	src, err := warmCorpusSource()
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	for i := 0; i < warmAllocWarmupRuns; i++ {
		if _, err := eng.String(src, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := eng.String(src, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 10 allocs/op on the pinned toolchain (the fixture has
	// polygons, so pooled manhattanisation scratch is in play); ~3x
	// slack.
	const budget = 32
	t.Logf("warm Engine (with parse): %.1f allocs/op (budget %d)", avg, budget)
	if avg > budget {
		t.Errorf("warm parse+extract allocates %.1f allocs/op, budget %d", avg, budget)
	}
}
