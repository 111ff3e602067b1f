// Command perfbench is the ACE benchmark. One process runs one
// workload: it builds the workload's inputs from a seed, checks every
// output the extractor produces against a reference, and prints the
// workload's metrics.
//
//	bash perfbench/run.sh --workload flat_table51 --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with no tracing.
// With --trace 1 it instead runs the traced pass: it times the calls
// into each layer's public functions from this package and prints the
// per-layer metrics. --workload all runs every workload, each in a
// child process of its own, so that peak RSS and GC counts belong to
// one workload.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it, tagged
// "detail", names the workload's own metrics with their units and
// sample counts, the fail ratio, the host (nproc, GOMAXPROCS, Go
// version, GOMEMLIMIT) and the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// A workload prepares its inputs, computes its references and then
// runs for a fixed time, untraced or traced.
type workload interface {
	// prepare builds everything the program is handed: generated
	// bytes, packed files, a running server. It may run several times;
	// each call replaces the previous state.
	prepare(c *config) error
	// reference computes the outputs the runs are checked against.
	reference(c *config) error
	// run measures for c.dur and fills r.
	run(c *config, r *report) error
	// traced runs the traced pass for c.dur and fills r.layers.
	traced(c *config, r *report) error
	// close releases what prepare set up.
	close()
}

var workloads = []struct {
	name string
	make func() workload
}{
	{"flat_table51", func() workload { return &flatWorkload{} }},
	{"hier_edit", func() workload { return &hierWorkload{} }},
	{"serve_mix", func() workload { return &serveWorkload{} }},
	{"tiles_stream", func() workload { return &tilesWorkload{} }},
}

// config is one run's settings.
type config struct {
	seed      int64
	dur       time.Duration
	dir       string // scratch directory for files the workload writes
	storeRoot string // directory for the hext stores, which outlive a run
	tiny      bool   // tiny inputs, for the smoke test
	wrong     bool   // corrupt every reference, for the smoke test
}

// prepare runs at least minSetupReps times and until minSetupTime has
// passed, at most maxSetupReps times; setup_s is the median. A set-up
// of a millisecond runs thousands of times, spread over the whole
// minSetupTime, so that a few slow moments do not move the median.
const (
	minSetupReps = 3
	maxSetupReps = 10000
	minSetupTime = 2 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds = flag.Float64("seconds", 10, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		dir     = flag.String("dir", ".bench_build", "directory for files the benchmark writes")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	c := &config{
		seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		storeRoot: filepath.Join(*dir, "hext-stores"),
	}
	var w workload
	for _, wl := range workloads {
		if wl.name == *name {
			w = wl.make()
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	err := os.MkdirAll(*dir, 0o755)
	if err == nil {
		c.dir, err = os.MkdirTemp(*dir, "run-"+*name+"-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r, err := runOne(c, w, *trace == 1)
	w.close()
	if rmErr := os.RemoveAll(c.dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cleanup:", rmErr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	r.write(os.Stdout, *name, *trace == 1)
}

// runOne sets the workload up, measures it and returns its report.
func runOne(c *config, w workload, traced bool) (*report, error) {
	r := newReport()
	var setups []float64
	for t := time.Now(); len(setups) < maxSetupReps &&
		(len(setups) < minSetupReps || time.Since(t) < minSetupTime && !c.tiny); {
		w.close()
		runtime.GC()
		t0 := time.Now()
		if err := w.prepare(c); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	if err := w.reference(c); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	r.named("reference_s", time.Since(t0).Seconds(), "s", 1)
	r.e2e("setup_s", median(setups), "s")
	r.named("setup_s", median(setups), "s", len(setups))

	// Peak RSS and GC counts cover the measured part only.
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	if traced {
		if err := w.traced(c, r); err != nil {
			return nil, err
		}
	} else if err := w.run(c, r); err != nil {
		return nil, err
	}
	// A workload may report its peak itself, from parts of the run.
	if _, ok := r.gated["peak_rss_mib"]; !ok {
		rss := float64(peakRSSBytes()) / (1 << 20)
		r.e2e("peak_rss_mib", rss, "MiB")
		r.named("peak_rss_mib", rss, "MiB", 1)
	}
	return r, nil
}

// runAll runs every workload in a child process of its own and passes
// their output through. It fails if any child fails.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var childArgs []string
	for i := 0; i < len(args); i++ {
		switch a := args[i]; {
		case a == "--workload" || a == "-workload":
			i++
		case strings.HasPrefix(a, "--workload=") || strings.HasPrefix(a, "-workload="):
		default:
			childArgs = append(childArgs, a)
		}
	}
	code := 0
	for _, wl := range workloads {
		cmd := exec.Command(self, append(childArgs, "--workload", wl.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		// The child dies with this process, so none outlives the run.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		fmt.Printf("== %s\n", wl.name)
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
			code = 1
		}
	}
	return code
}

// metric is one printed value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report collects one run's operations and metrics.
type report struct {
	attempted, failed int
	failures          []string
	gated             map[string]metric // end-to-end, by the names BENCHMARK.json gives
	detail            map[string]metric // the workload's own names, with sample counts
	layers            map[string]metric // per-layer metrics of the traced pass
}

func newReport() *report {
	return &report{gated: map[string]metric{}, detail: map[string]metric{}, layers: map[string]metric{}}
}

// check counts one operation, failed unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// checkErr counts one operation, failed if err is not nil.
func (r *report) checkErr(err error, what string) {
	if err != nil {
		r.check(false, "%s: %v", what, err)
		return
	}
	r.check(true, "")
}

func (r *report) e2e(name string, v float64, unit string) {
	r.gated[name] = metric{Value: v, Unit: unit}
}

func (r *report) named(name string, v float64, unit string, n int) {
	r.detail[name] = metric{Value: v, Unit: unit, Samples: n}
}

func (r *report) layer(name string, v float64, unit string) {
	r.layers[name] = metric{Value: v, Unit: unit}
}

// The generic end-to-end metrics every workload reports.
const (
	mThroughput = "throughput_per_s"
	mP50        = "latency_p50_ms"
	mTail       = "latency_tail_ms"
)

// latency reports a latency distribution: its median and tail under
// the generic names, and under the workload's own names with the
// sample count. tailP is the tail percentile the workload sizes its
// sample for; a smaller sample reports the highest percentile that
// still has ten samples beyond it.
func (r *report) latency(prefix string, ms []float64, tailP float64) {
	p50 := percentile(ms, 50)
	p := tailPercentile(len(ms), tailP)
	tail := percentile(ms, p)
	r.e2e(mP50, p50, "ms")
	r.e2e(mTail, tail, "ms")
	r.named(prefix+"_p50_ms", p50, "ms", len(ms))
	r.named(fmt.Sprintf("%s_p%g_ms", prefix, p), tail, "ms", len(ms))
}

// perLayerNames lists every per-layer metric with its unit, so that a
// workload on which a layer is idle reports that layer as zero.
var perLayerNames = []struct{ name, unit string }{
	{"cif.parse_ms", "ms"}, {"cif.items", "count"},
	{"frontend.self_ms", "ms"}, {"frontend.boxes", "count"}, {"frontend.cells_expanded", "count"},
	{"scan.self_ms", "ms"}, {"scan.stops", "count"}, {"scan.max_active", "count"}, {"scan.sum_active", "count"},
	{"build.finish_ms", "ms"}, {"build.net_elems", "count"}, {"build.dev_elems", "count"},
	{"wirelist.write_ms", "ms"}, {"wirelist.bytes", "bytes"},
	{"extract.allocs_per_op", "count"}, {"extract.bytes_per_op", "bytes"},
	{"gc.cycles", "count"}, {"gc.pause_ms", "ms"},
	{"hext.frontend_ms", "ms"}, {"hext.leaf_ms", "ms"}, {"hext.compose_ms", "ms"}, {"hext.flatten_ms", "ms"},
	{"hext.unattributed_ms", "ms"}, {"hext.alloc_bytes", "bytes"}, {"hext.leaf_sweeps", "count"},
	{"hext.memo_hits", "count"}, {"hext.session_hits", "count"},
	{"hext.cache_hit_ratio", "ratio"}, {"hext.flat_calls", "count"},
	{"store.write_ms", "ms"}, {"store.sync_ms", "ms"}, {"store.rename_ms", "ms"}, {"store.syncs", "count"},
	{"store.bytes_written", "bytes"}, {"store.create_ms", "ms"}, {"store.read_ms", "ms"}, {"store.bytes_read", "bytes"}, {"store.open_ms", "ms"},
	{"tile.read_ms", "ms"}, {"tile.bytes_read", "bytes"}, {"tile.tiles_decoded", "count"},
	{"tile.window_tile_ratio", "ratio"}, {"tile.decode_ms", "ms"},
	{"serve.client_ms", "ms"}, {"serve.handler_ms", "ms"}, {"serve.engine_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"}, {"serve.accepted", "count"}, {"serve.extractions", "count"}, {"serve.dedup_waits", "count"},
	{"serve.shed", "count"}, {"serve.gen_late_ms_p99", "ms"},
	{"trace.overhead_ratio", "ratio"}, {"trace.unattributed_ratio", "ratio"},
}

// endToEndNames lists the end-to-end metrics with their units.
var endToEndNames = []struct{ name, unit string }{
	{"setup_s", "s"}, {mThroughput, "1/s"}, {mP50, "ms"}, {mTail, "ms"}, {"peak_rss_mib", "MiB"},
}

// write prints the detail line and the result line to w.
func (r *report) write(w io.Writer, workload string, traced bool) {
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	r.named("fail_ratio", ratio, "ratio", r.attempted)
	host := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "gomemlimit": memLimitSetting(),
	}
	detail := map[string]any{"detail": workload, "host": host, "metrics": r.detail}
	if traced {
		detail["metrics"] = mergeMetrics(r.detail, r.layers)
	}
	line, _ := json.Marshal(detail)
	fmt.Fprintln(w, string(line))

	out := map[string]metric{}
	names := endToEndNames
	src := r.gated
	if traced {
		names = perLayerNames
		src = r.layers
	}
	for _, n := range names {
		m, ok := src[n.name]
		if !ok {
			m = metric{Unit: n.unit}
		}
		m.Value = finite(m.Value)
		out[n.name] = metric{Value: m.Value, Unit: n.unit}
	}
	res, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out})
	fmt.Fprintln(w, string(res))
}

func mergeMetrics(a, b map[string]metric) map[string]metric {
	out := make(map[string]metric, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// finite maps NaN and infinities, which JSON cannot carry, to zero.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// memLimitSetting is the GOMEMLIMIT in force, or -1 for none.
func memLimitSetting() int64 {
	l := debug.SetMemoryLimit(-1)
	if l == math.MaxInt64 {
		return -1
	}
	return l
}

// median of xs; xs is not modified.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// tailPercentile returns want if n samples leave at least ten beyond
// it, else the highest of the usual percentiles that does, else 50.
func tailPercentile(n int, want float64) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if p > want {
			continue
		}
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// scratchPath joins name onto the run's scratch directory.
func (c *config) scratchPath(name string) string { return filepath.Join(c.dir, name) }
