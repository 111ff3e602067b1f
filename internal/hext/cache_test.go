package hext

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ace/internal/cif"
	"ace/internal/gen"
	"ace/internal/wirelist"
)

func flatWirelist(t *testing.T, res *Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := wirelist.Write(&buf, res.Netlist, wirelist.Options{}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// The reuse-sweep workload: 64 replicated instances whose windows all
// differ (varying margins defeat the memo table), but whose anchored
// contents repeat. The content cache must collapse the leaf sweeps to
// the number of distinct contents while the netlist stays equivalent
// to flat ACE.
func TestContentCacheHits(t *testing.T) {
	w := gen.Replicated(64)
	hres, _ := hextVsACE(t, w.Name, w.File, Options{})
	if got := len(hres.Netlist.Devices); got != w.WantDevices {
		t.Fatalf("devices %d, want %d", got, w.WantDevices)
	}
	if got := len(hres.Netlist.Nets); got != w.WantNets {
		t.Fatalf("nets %d, want %d", got, w.WantNets)
	}
	c := hres.Counters
	if c.LeafSweeps != c.CacheMisses {
		t.Fatalf("LeafSweeps %d != CacheMisses %d with cache enabled (%+v)",
			c.LeafSweeps, c.CacheMisses, c)
	}
	if c.CacheHits == 0 {
		t.Fatalf("no cache hits on 64 replicated instances: %+v", c)
	}
	// Leaf sweeps are bounded by the number of *distinct* window
	// contents — the cell content plus empty/rail margins — not by the
	// number of flat calls (one per window).
	if c.LeafSweeps >= c.FlatCalls {
		t.Fatalf("cache shared nothing: sweeps %d, flat calls %d (%+v)",
			c.LeafSweeps, c.FlatCalls, c)
	}
	if c.LeafSweeps > 8 {
		t.Fatalf("too many distinct sweeps for a replicated row: %d (%+v)", c.LeafSweeps, c)
	}
	if c.CacheBytes <= 0 {
		t.Fatalf("cache byte gauge not recorded: %+v", c)
	}
}

// With the cache disabled every flat call sweeps.
func TestCacheDisabled(t *testing.T) {
	w := gen.Replicated(16)
	hres, _ := hextVsACE(t, "replicatedNoCache", w.File, Options{CacheSize: -1})
	c := hres.Counters
	if c.CacheHits != 0 || c.CacheMisses != 0 || c.CacheBytes != 0 {
		t.Fatalf("cache counters moved while disabled: %+v", c)
	}
	if c.LeafSweeps != c.FlatCalls {
		t.Fatalf("LeafSweeps %d != FlatCalls %d with cache disabled (%+v)",
			c.LeafSweeps, c.FlatCalls, c)
	}
}

// A pathologically small cache must evict but never corrupt results.
func TestCacheEvictionCorrectness(t *testing.T) {
	w := gen.Memory(6, 6)
	hres, _ := hextVsACE(t, "memoryTinyCache", w.File, Options{CacheSize: 2})
	if got := len(hres.Netlist.Devices); got != w.WantDevices {
		t.Fatalf("devices %d, want %d", got, w.WantDevices)
	}
	ref, err := Extract(w.File, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := flatWirelist(t, hres), flatWirelist(t, ref); a != b {
		t.Fatal("tiny-cache wirelist differs from default-cache wirelist")
	}
}

// The promise the DAG scheduler makes: the output is byte-identical at
// every worker count and cache configuration — flat wirelist and
// hierarchical wirelist both.
func TestParallelByteIdentical(t *testing.T) {
	workloads := []struct {
		name string
		file *cif.File
		base Options
	}{
		{"replicated", gen.Replicated(48).File, Options{}},
		{"memory", gen.Memory(8, 8).File, Options{}},
		// MaxLeafItems 4 forces cuts through channels: partial
		// transistors cross the parallel compose path.
		{"mesh", gen.Mesh(5).File, Options{MaxLeafItems: 4}},
		{"statistical", gen.Statistical(600, 7).File, Options{MaxLeafItems: 60}},
	}
	for _, w := range workloads {
		serial := w.base
		serial.Workers = 1
		ref, err := Extract(w.file, serial)
		if err != nil {
			t.Fatalf("%s: serial: %v", w.name, err)
		}
		refFlat := flatWirelist(t, ref)
		refHier := ref.HierarchicalString()
		for _, v := range []struct {
			tag     string
			workers int
			cache   int
		}{
			{"workers=4", 4, 0},
			{"workers=8", 8, 0},
			{"workers=4,nocache", 4, -1},
			{"workers=4,cache=3", 4, 3},
			{"serial,nocache", 1, -1},
		} {
			opt := w.base
			opt.Workers = v.workers
			opt.CacheSize = v.cache
			res, err := Extract(w.file, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.name, v.tag, err)
			}
			if got := flatWirelist(t, res); got != refFlat {
				t.Fatalf("%s/%s: flat wirelist differs from serial run", w.name, v.tag)
			}
			if got := res.HierarchicalString(); got != refHier {
				t.Fatalf("%s/%s: hierarchical wirelist differs from serial run", w.name, v.tag)
			}
			if len(res.Warnings) != len(ref.Warnings) {
				t.Fatalf("%s/%s: warning count %d != serial %d",
					w.name, v.tag, len(res.Warnings), len(ref.Warnings))
			}
		}
	}
}

// Parallel execution must not repeat sweeps: the single-flight cache
// keeps LeafSweeps equal to the number of distinct contents even when
// workers race to the same entry.
func TestParallelSingleFlight(t *testing.T) {
	w := gen.Replicated(64)
	serial, err := Extract(w.File, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Extract(w.File, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if par.Counters.LeafSweeps != serial.Counters.LeafSweeps {
		t.Fatalf("parallel ran %d sweeps, serial %d — single-flight broken",
			par.Counters.LeafSweeps, serial.Counters.LeafSweeps)
	}
	if par.Counters.CacheHits != serial.Counters.CacheHits {
		t.Fatalf("parallel hits %d != serial hits %d",
			par.Counters.CacheHits, serial.Counters.CacheHits)
	}
}

// TestParallelSweepsOverlap checks that the DAG pool runs leaf sweeps
// concurrently and that doing so leaves the wirelist unchanged. It
// asserts the concurrency it observes, not a wall-clock speedup, which
// depends on the host's free cores; BenchmarkHext's statistical
// variants report the speedup itself. Each sweep holds until a second
// one is in flight (or a timeout passes), so on any core count a pool
// that overlaps sweeps reaches two and one that serialises them stays
// at one.
func TestParallelSweepsOverlap(t *testing.T) {
	// Distinct random contents defeat both memo table and cache, so the
	// back-end has real concurrent sweeps to schedule.
	w := gen.Statistical(4000, 3)
	opt := Options{Workers: 1, MaxLeafItems: 200, DisableMemo: true}
	serial, err := Extract(w.File, opt)
	if err != nil {
		t.Fatal(err)
	}

	var inFlight atomic.Int32
	var overlapped atomic.Bool
	overlap := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(overlap) }) }
	sweepHook = func(delta int) {
		if inFlight.Add(int32(delta)) >= 2 {
			overlapped.Store(true)
			release()
		}
		if delta > 0 {
			select {
			case <-overlap:
			case <-time.After(10 * time.Second):
				release()
			}
		}
	}
	defer func() { sweepHook = nil }()
	opt.Workers = 4
	par, err := Extract(w.File, opt)
	sweepHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if !overlapped.Load() {
		t.Fatal("no two leaf sweeps were ever in flight with 4 workers")
	}
	if par.Counters.LeafSweeps != serial.Counters.LeafSweeps {
		t.Fatalf("4 workers ran %d sweeps, serial %d", par.Counters.LeafSweeps, serial.Counters.LeafSweeps)
	}
	if flatWirelist(t, par) != flatWirelist(t, serial) {
		t.Fatal("4-worker wirelist differs from serial")
	}
}

// BenchmarkHext is the reuse sweep of the hierarchical benchmark:
// replicating the same cell 1×, 8× and 64× should grow extraction cost
// far slower than linearly while the content cache absorbs the leaf
// sweeps. Worker and no-cache variants quantify the DAG scheduler and
// the memoisation separately.
func BenchmarkHext(b *testing.B) {
	for _, reps := range []int{1, 8, 64} {
		w := gen.Replicated(reps)
		for _, v := range []struct {
			tag string
			opt Options
		}{
			{"workers=1", Options{Workers: 1}},
			{"workers=4", Options{Workers: 4}},
			{"nocache", Options{Workers: 1, CacheSize: -1}},
		} {
			b.Run(fmt.Sprintf("reps=%d/%s", reps, v.tag), func(b *testing.B) {
				benchExtract(b, w, v.opt)
			})
		}
	}
	// The sweep-dominated workload of TestParallelSweepsOverlap: distinct
	// random contents with memo and cache off, so every leaf sweeps. The
	// two variants' ns/op are the DAG scheduler's wall-clock speedup,
	// reported here rather than asserted, since it depends on how many
	// cores the host has free.
	w := gen.Statistical(4000, 3)
	ref, err := Extract(w.File, Options{MaxLeafItems: 200, DisableMemo: true})
	if err != nil {
		b.Fatal(err)
	}
	w.WantDevices = len(ref.Netlist.Devices) // the generator does not say
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("statistical/workers=%d", workers), func(b *testing.B) {
			benchExtract(b, w, Options{Workers: workers, MaxLeafItems: 200, DisableMemo: true})
		})
	}
}

func benchExtract(b *testing.B, w gen.Workload, opt Options) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Extract(w.File, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Netlist.Devices) != w.WantDevices {
			b.Fatalf("devices %d, want %d", len(res.Netlist.Devices), w.WantDevices)
		}
	}
}
