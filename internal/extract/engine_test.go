package extract

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ace/internal/gen"
	"ace/internal/guard"
	"ace/internal/wirelist"
)

// TestEngineByteIdentical reuses one Engine across the corpus and the
// worker settings and demands the warm wirelist equal the cold one bit
// for bit at every reuse count — the contract that makes pooling safe
// to deploy: a daemon's thousandth extraction is indistinguishable from
// a fresh process's first.
func TestEngineByteIdentical(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.cif"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus glob: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		cold, err := String(text, Options{})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		baseline := wirelist.Format(cold.Netlist, wirelist.Options{})

		for _, fw := range []int{0, 1, 8} {
			for _, sw := range []int{0, 4} {
				t.Run(fmt.Sprintf("%s/fw=%d/sw=%d", filepath.Base(p), fw, sw), func(t *testing.T) {
					eng := NewEngine()
					for reuse := 0; reuse < 3; reuse++ {
						res, err := eng.String(text, Options{Workers: sw, FlattenWorkers: fw})
						if err != nil {
							t.Fatalf("reuse %d: %v", reuse, err)
						}
						out, err := wirelist.AppendTo(eng.GetOutBuf(), res.Netlist, wirelist.Options{})
						if err != nil {
							t.Fatal(err)
						}
						if string(out) != baseline {
							t.Fatalf("reuse %d: warm output diverged from cold baseline", reuse)
						}
						eng.PutOutBuf(out)
					}
				})
			}
		}
	}
}

// TestEngineReusesAbandonedStream abandons the Engine's pooled
// front-end stream mid-drain — an extraction cancelled after its first
// scanline stop (or first drained chunk), and one stopped by its box
// budget — and demands that the extractions that reuse the stream on
// the same Engine give wirelists byte-identical to a cold run. A stream
// whose queue floor or buckets survived the abandonment would reject or
// misorder the next design's boxes.
func TestEngineReusesAbandonedStream(t *testing.T) {
	c, ok := gen.ChipByName("dchip")
	if !ok {
		t.Fatal("no dchip chip")
	}
	w := c.Build(0.25) // more boxes than one drainLimited chunk
	cold, err := File(w.File, Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseline := wirelist.Format(cold.Netlist, wirelist.Options{})
	if cold.Counters.BoxesIn <= 4096 {
		t.Fatalf("%d boxes: too few to abandon the bands path mid-drain", cold.Counters.BoxesIn)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opt := range []Options{{}, {Workers: 2}, {FlattenWorkers: 2}} {
		eng := NewEngine()
		for round := 0; round < 3; round++ {
			if _, err := eng.FileContext(cancelled, w.File, opt); !errors.Is(err, context.Canceled) {
				t.Fatalf("%+v round %d: cancelled run err %v", opt, round, err)
			}
			lim := opt
			lim.Limits = guard.Limits{MaxBoxes: 1000}
			var le *guard.LimitError
			if _, err := eng.File(w.File, lim); !errors.As(err, &le) {
				t.Fatalf("%+v round %d: budgeted run err %v", opt, round, err)
			}
			res, err := eng.File(w.File, opt)
			if err != nil {
				t.Fatalf("%+v round %d: %v", opt, round, err)
			}
			if wirelist.Format(res.Netlist, wirelist.Options{}) != baseline {
				t.Fatalf("%+v round %d: output after an abandoned stream diverged from cold", opt, round)
			}
		}
	}
}

// TestEngineByteIdenticalGeometry covers the KeepGeometry path, where
// builder geometry arenas see the heaviest reuse.
func TestEngineByteIdenticalGeometry(t *testing.T) {
	c, ok := gen.ChipByName("cherry")
	if !ok {
		t.Fatal("no cherry chip")
	}
	w := c.Build(0.05)
	opt := Options{KeepGeometry: true}
	cold, err := File(w.File, opt)
	if err != nil {
		t.Fatal(err)
	}
	baseline := wirelist.Format(cold.Netlist, wirelist.Options{Geometry: true})

	eng := NewEngine()
	for reuse := 0; reuse < 3; reuse++ {
		res, err := eng.File(w.File, opt)
		if err != nil {
			t.Fatalf("reuse %d: %v", reuse, err)
		}
		if got := wirelist.Format(res.Netlist, wirelist.Options{Geometry: true}); got != baseline {
			t.Fatalf("reuse %d: warm geometry output diverged", reuse)
		}
	}
}

// TestEngineConcurrent hammers one Engine from several goroutines;
// run under -race this is the proof that the pools are mutex-clean and
// concurrent extractions draw disjoint scratch.
func TestEngineConcurrent(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "polygons.cif"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	cold, err := String(text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseline := wirelist.Format(cold.Netlist, wirelist.Options{})

	eng := NewEngine()
	var wg sync.WaitGroup
	errs := make(chan error, 4*5)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := eng.String(text, Options{Workers: 2})
				if err != nil {
					errs <- err
					return
				}
				out, err := wirelist.AppendTo(eng.GetOutBuf(), res.Netlist, wirelist.Options{})
				if err != nil {
					errs <- err
					return
				}
				if string(out) != baseline {
					errs <- fmt.Errorf("goroutine %d iter %d: output diverged", g, i)
				}
				eng.PutOutBuf(out)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// BenchmarkWarmEngine is the CI bench-smoke target: steady-state
// extraction of a small synthetic chip through a warm Engine. Compare
// against BenchmarkColdExtract to see what the pools buy.
func BenchmarkWarmEngine(b *testing.B) {
	c, ok := gen.ChipByName("cherry")
	if !ok {
		b.Fatal("no cherry chip")
	}
	w := c.Build(0.05)
	eng := NewEngine()
	for i := 0; i < 2; i++ {
		if _, err := eng.File(w.File, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.File(w.File, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdExtract is the package-level comparison row for
// BenchmarkWarmEngine.
func BenchmarkColdExtract(b *testing.B) {
	c, ok := gen.ChipByName("cherry")
	if !ok {
		b.Fatal("no cherry chip")
	}
	w := c.Build(0.05)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := File(w.File, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
