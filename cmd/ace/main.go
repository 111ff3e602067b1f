// Command ace is the flat circuit extractor: CIF in, wirelist out.
//
// Usage:
//
//	ace [flags] [input.cif]         extract a design (stdin if no file)
//	ace -table51 [-scale 0.1]       reproduce ACE Table 5-1
//	ace -table52 [-scale 0.1]       reproduce ACE Table 5-2
//	ace -phases  [-scale 0.1]       reproduce the §5 time distribution
//	ace -mesh n                     run the §4 worst-case mesh
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"ace/internal/check"
	"ace/internal/cif"
	"ace/internal/cifplot"
	"ace/internal/cli"
	"ace/internal/extract"
	"ace/internal/frontend"
	"ace/internal/gen"
	"ace/internal/guard"
	"ace/internal/hext"
	"ace/internal/netlist"
	"ace/internal/prof"
	"ace/internal/raster"
	"ace/internal/wirelist"
)

func main() {
	var (
		out      = flag.String("o", "", "write the wirelist to this file (default stdout)")
		geometry = flag.Bool("g", false, "include net and device geometry in the wirelist")
		stats    = flag.Bool("stats", false, "print summary statistics instead of the wirelist")
		profile  = flag.Bool("phases-only", false, "with an input file: print the phase breakdown")
		table51  = flag.Bool("table51", false, "reproduce ACE Table 5-1 on the synthetic chips")
		table52  = flag.Bool("table52", false, "reproduce ACE Table 5-2 (ACE vs Partlist vs Cifplot)")
		phases   = flag.Bool("phases", false, "reproduce the §5 time-distribution list")
		mesh     = flag.Int("mesh", 0, "extract the n×n worst-case mesh and print timing")
		model    = flag.Bool("model", false, "reproduce the §4 expected-case model counters (E6)")
		scale    = flag.Float64("scale", 1.0, "chip scale factor for the table harnesses")
		bench    = flag.String("bench-json", "", "benchmark the synthetic chips and write a JSON baseline to this file")
		benchIn  = flag.String("bench-ingest-json", "", "benchmark the ingest pipeline (parse + instantiate) and write a JSON baseline to this file")
		benchTil = flag.String("bench-tiles-json", "", "benchmark out-of-core tiled extraction under GOMEMLIMIT and write a JSON baseline to this file")
		benchWrm = flag.String("bench-warm-json", "", "benchmark cold vs warm-engine extraction (allocs/op, GC deltas, byte-identity) and write a JSON baseline to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.BoolVar(&flagHier, "hier", false, "extract with the hierarchical engine (hext) instead of the flat sweep")
	flag.StringVar(&flagCacheDir, "cache-dir", "", "persistent extraction cache directory (implies -hier; empty: disabled)")
	flag.IntVar(&flagWorkers, "workers", 0, "split the sweep into this many concurrent bands (0 or 1: serial)")
	flag.IntVar(&flagFlattenWorkers, "flatten-workers", 0, "pre-flatten the design and stamp instances with this many workers, streaming boxes into the sweep (0: lazy heap front end)")
	flag.DurationVar(&flagTimeout, "timeout", 0, "abort the extraction after this wall-clock duration (e.g. 30s; 0: no limit)")
	flag.BoolVar(&flagLenient, "lenient", false, "recover from malformed CIF: record located diagnostics, resynchronise, extract the salvageable geometry")
	flag.BoolVar(&flagCheck, "check", false, "run the static electrical-rule checker on the extracted netlist")
	flag.BoolVar(&flagDiagJSON, "diag-json", false, "emit diagnostics as a JSON report on stdout (the wirelist then requires -o)")
	flag.Int64Var(&flagMaxBoxes, "max-boxes", 0, "fail the extraction after this many geometry items (0: unlimited)")
	flag.StringVar(&flagName, "name", "", "override the wirelist part name (default: the input path)")
	flag.StringVar(&flagTiles, "tiles", "", "extract from a packed tile file (see cmd/cifpack) instead of CIF")
	flag.StringVar(&flagWindow, "window", "", "with -tiles: extract only the window x0,y0,x1,y1 (centimicrons), reading O(window) tiles")
	flag.StringVar(&flagStatsJSON, "stats-json", "", "write a machine-readable run summary (timing, peak RSS, tile I/O) to this file")
	flag.IntVar(&flagRepeat, "repeat", 1, "re-extract the design this many times in one process through a warm engine, reporting per-iteration timings")
	flag.Parse()

	gcStart = prof.CaptureGC()

	stop, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}

	// Run functions return their exit code rather than calling os.Exit,
	// so the profiles are written whatever the outcome.
	code := cli.ExitOK
	switch {
	case *benchIn != "":
		runBenchIngestJSON(*benchIn, *scale)
	case *bench != "":
		runBenchJSON(*bench, *scale)
	case *benchTil != "":
		runBenchTilesJSON(*benchTil, *scale)
	case *benchWrm != "":
		runBenchWarmJSON(*benchWrm, *scale)
	case flagTiles != "":
		code = runExtractTiles(*out, *geometry, *stats, *profile)
	case *table51:
		runTable51(*scale)
	case *table52:
		runTable52(*scale)
	case *phases:
		runPhases(*scale)
	case *mesh > 0:
		runMesh(*mesh)
	case *model:
		runModel()
	default:
		code = runExtract(flag.Arg(0), *out, *geometry, *stats, *profile)
	}
	stop()
	os.Exit(code)
}

func fatal(err error) {
	cli.Fatal("ace", err)
}

func fail(err error) int {
	return cli.Fail("ace", err)
}

func runExtract(in, out string, geometry, stats, profile bool) int {
	if flagWindow != "" {
		return fail(fmt.Errorf("-window requires -tiles: windowed queries read a packed tile file"))
	}
	r := os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		r = f
	}
	ctx, cancel := extractCtx()
	defer cancel()
	if flagHier || flagCacheDir != "" {
		return runExtractHier(ctx, r, in, out, geometry, stats)
	}
	opt := extract.Options{
		KeepGeometry:   geometry,
		Profile:        profile || stats,
		Workers:        flagWorkers,
		FlattenWorkers: flagFlattenWorkers,
		Lenient:        flagLenient,
		Limits:         guard.Limits{MaxBoxes: flagMaxBoxes},
	}
	t0 := time.Now()
	var res *extract.Result
	var err error
	if flagRepeat > 1 {
		// A warm loop: one engine, the same bytes, N extractions. The
		// input is buffered so every iteration re-reads identical text;
		// the last result is the one reported and written out.
		src, rerr := io.ReadAll(r)
		if rerr != nil {
			return fail(rerr)
		}
		eng := extract.NewEngine()
		for i := 0; i < flagRepeat; i++ {
			it0 := time.Now()
			res, err = eng.ReaderContext(ctx, bytes.NewReader(src), opt)
			if err != nil {
				return fail(err)
			}
			recordIter(time.Since(it0))
		}
	} else {
		res, err = extract.ReaderContext(ctx, r, opt)
		if err != nil {
			return fail(err)
		}
	}
	elapsed := time.Since(t0)
	if flagCheck {
		res.Diagnostics.AddAll(check.Run(res.Netlist, check.Options{}))
		res.Diagnostics.Sort()
	}
	diagMode := flagLenient || flagCheck || flagDiagJSON
	if diagMode {
		// The unified renderer covers warnings too; the legacy per-line
		// warning echo would duplicate them.
		if err := cli.RenderDiagnostics(in, &res.Diagnostics, flagDiagJSON, os.Stdout, os.Stderr); err != nil {
			return fail(err)
		}
	} else {
		for _, w := range res.Warnings {
			fmt.Fprintln(os.Stderr, "ace: warning:", w)
		}
	}
	if in != "" {
		res.Netlist.Name = in
	}
	if flagName != "" {
		res.Netlist.Name = flagName
	}

	if stats || profile {
		fmt.Printf("%s\n", res.Netlist.Stats())
		fmt.Printf("boxes=%d stops=%d maxActive=%d cellsExpanded=%d\n",
			res.Counters.BoxesIn, res.Counters.Stops, res.Counters.MaxActive,
			res.Frontend.CellsExpanded)
		p := res.Phases
		if flagFlattenWorkers > 0 {
			// Streamed ingest: flatten wall-clock overlaps the sweep,
			// and the run-sort CPU is contained inside it.
			fmt.Printf("phases: parse=%v flatten=%v sort=%v insert=%v devices=%v output=%v misc=%v total=%v\n",
				p.Parse, p.Flatten, p.Sort, p.Insert, p.Devices, p.Output, p.Misc(), p.Total)
		} else {
			fmt.Printf("phases: parse=%v frontend=%v insert=%v devices=%v output=%v misc=%v total=%v\n",
				p.Parse, p.FrontEnd, p.Insert, p.Devices, p.Output, p.Misc(), p.Total)
		}
		printResourceStats(res.Tile)
	}
	if !stats && !profile && !(flagDiagJSON && out == "") {
		// With -diag-json the JSON report owns stdout; the wirelist is
		// written only when -o directs it elsewhere.
		if err := writeWirelist(out, res.Netlist, geometry); err != nil {
			return fail(err)
		}
	}
	if err := writeRunStats("cif", res, elapsed); err != nil {
		return fail(err)
	}
	return cli.Exit(&res.Diagnostics)
}

// runExtractHier is runExtract delegated to the hierarchical engine:
// same flat wirelist, same diagnostics rendering and exit-code
// taxonomy, but windows are memoised — and, with -cache-dir, persisted
// across processes.
func runExtractHier(ctx context.Context, r io.Reader, in, out string, geometry, stats bool) int {
	if geometry {
		fmt.Fprintln(os.Stderr, "ace: warning: -g is not supported with -hier; geometry omitted")
	}
	hopt := hext.Options{
		Workers:  flagWorkers,
		CacheDir: flagCacheDir,
		Lenient:  flagLenient,
		Limits:   guard.Limits{MaxBoxes: flagMaxBoxes},
	}
	var res *hext.Result
	var err error
	if flagRepeat > 1 {
		// A warm session loop: parse once, then re-extract through one
		// Session so the memo, pools and caches stay hot.
		f, perr := cif.ParseReaderOpts(r, cif.ParseOptions{
			Limits: hopt.Limits, Lenient: hopt.Lenient, Diag: hopt.Diag,
		})
		if perr != nil {
			return fail(perr)
		}
		s := hext.NewSession(hopt)
		for i := 0; i < flagRepeat; i++ {
			it0 := time.Now()
			res, err = s.ExtractContext(ctx, f)
			if err != nil {
				return fail(err)
			}
			recordIter(time.Since(it0))
		}
	} else {
		res, err = hext.ReaderContext(ctx, r, hopt)
		if err != nil {
			return fail(err)
		}
	}
	if flagCheck {
		res.Diagnostics.AddAll(check.Run(res.Netlist, check.Options{}))
		res.Diagnostics.Sort()
	}
	if flagLenient || flagCheck || flagDiagJSON {
		if err := cli.RenderDiagnostics(in, &res.Diagnostics, flagDiagJSON, os.Stdout, os.Stderr); err != nil {
			return fail(err)
		}
	} else {
		for _, w := range res.Warnings {
			fmt.Fprintln(os.Stderr, "ace: warning:", w)
		}
	}
	if in != "" {
		res.Netlist.Name = in
	}
	if flagName != "" {
		res.Netlist.Name = flagName
	}
	if stats {
		c := res.Counters
		fmt.Printf("%s\n", res.Netlist.Stats())
		fmt.Printf("uniqueWindows=%d memoHits=%d diskHits=%d diskMisses=%d diskErrors=%d diskPutErrors=%d\n",
			c.UniqueWindows, c.MemoHits, c.DiskHits, c.DiskMisses, c.DiskErrors, c.DiskPutErrors)
		printResourceStats(nil)
	}
	if !stats && !(flagDiagJSON && out == "") {
		if err := writeWirelist(out, res.Netlist, false); err != nil {
			return fail(err)
		}
	}
	return cli.Exit(&res.Diagnostics)
}

// writeWirelist writes the flat wirelist to the -o path, or to stdout
// when out is empty (see cli.WriteOutput).
func writeWirelist(out string, nl *netlist.Netlist, geometry bool) error {
	return cli.WriteOutput(out, func(w io.Writer) error {
		return wirelist.Write(w, nl, wirelist.Options{Geometry: geometry})
	})
}

// runTable51 reproduces ACE Table 5-1: per chip, devices, boxes,
// extraction time, devices/sec and boxes/sec — demonstrating that the
// run time is linear in the number of boxes.
func runTable51(scale float64) {
	fmt.Printf("ACE Table 5-1 (synthetic stand-in chips, scale %.2f, %s)\n\n", scale, hostLine())
	fmt.Printf("%-10s %9s %12s %12s %12s %12s\n",
		"Name", "Devices", "Boxes", "Time", "Devs/sec", "Boxes/sec")
	for _, c := range gen.Chips {
		w := c.Build(scale)
		res, dur := timedExtract(w.File)
		sec := dur.Seconds()
		fmt.Printf("%-10s %9d %12d %12s %12.0f %12.0f\n",
			c.Name, len(res.Netlist.Devices), res.Counters.BoxesIn,
			round(dur), float64(len(res.Netlist.Devices))/sec,
			float64(res.Counters.BoxesIn)/sec)
	}
	fmt.Printf("\nPaper (VAX-11/780): 7–14 devs/sec, 83–123 boxes/sec, flat across sizes.\n")
}

// runTable52 reproduces ACE Table 5-2: ACE vs the run-encoded raster
// baseline (Partlist) vs the region-based baseline (Cifplot).
func runTable52(scale float64) {
	fmt.Printf("ACE Table 5-2 (synthetic stand-in chips, scale %.2f, %s)\n\n", scale, hostLine())
	fmt.Printf("%-10s %9s %12s %12s %12s\n", "chip", "devices", "ACE", "Partlist", "Cifplot")
	chips := []string{"cherry", "dchip", "schip2", "testram", "riscb"}
	for _, name := range chips {
		c, _ := gen.ChipByName(name)
		w := c.Build(scale)

		aceRes, aceT := timedExtract(w.File)

		boxes, labels := drainBoxes(w.File)
		t0 := time.Now()
		rres, err := raster.ExtractBoxes(boxes, raster.Options{Grid: gen.Lambda, Labels: labels})
		if err != nil {
			fatal(err)
		}
		rasterT := time.Since(t0)

		t0 = time.Now()
		cres, err := cifplot.ExtractBoxes(boxes, cifplot.Options{Labels: labels})
		if err != nil {
			fatal(err)
		}
		cifplotT := time.Since(t0)

		if len(rres.Netlist.Devices) != len(aceRes.Netlist.Devices) ||
			len(cres.Netlist.Devices) != len(aceRes.Netlist.Devices) {
			fmt.Fprintf(os.Stderr, "ace: warning: %s: device counts differ (%d/%d/%d)\n",
				name, len(aceRes.Netlist.Devices), len(rres.Netlist.Devices), len(cres.Netlist.Devices))
		}
		fmt.Printf("%-10s %9d %12s %12s %12s\n",
			name, len(aceRes.Netlist.Devices), round(aceT), round(rasterT), round(cifplotT))
	}
	fmt.Printf("\nPaper (VAX-11/780): ACE ≈ 2x faster than Partlist, ≈ 4-5x faster than Cifplot.\n")
}

// runPhases reproduces the §5 coarse time distribution. The design is
// rendered to CIF text first so the parse phase is measured, as in the
// paper's "parsing, interpreting and sorting the CIF file".
func runPhases(scale float64) {
	c, _ := gen.ChipByName("dchip")
	w := c.Build(scale)
	src := cif.String(w.File)
	res, err := extract.String(src, extract.Options{Profile: true})
	if err != nil {
		fatal(err)
	}
	p := res.Phases
	total := p.Total.Seconds()
	pct := func(d time.Duration) float64 { return 100 * d.Seconds() / total }
	fmt.Printf("ACE §5 time distribution (%s at scale %.2f, %s)\n\n", c.Name, scale, hostLine())
	fmt.Printf("  %5.1f%%  parsing, interpreting and sorting the CIF file (paper: 40%%)\n",
		pct(p.Parse+p.FrontEnd))
	fmt.Printf("  %5.1f%%  entering new geometry into lists (paper: 15%%)\n", pct(p.Insert))
	fmt.Printf("  %5.1f%%  computing devices, nets, etc. (paper: 20%%)\n", pct(p.Devices))
	fmt.Printf("  %5.1f%%  storage allocation, I/O, initialization (paper: 10%%)\n", pct(p.Output))
	fmt.Printf("  %5.1f%%  miscellaneous (paper: 15%%)\n", pct(p.Misc()))
}

// runModel reproduces the §4 expected-case analysis: under the
// Bentley–Haken–Hon box model, both the number of scanline stops and
// the active-list length grow as O(√N).
func runModel() {
	fmt.Printf("ACE §4 expected-case model (Bentley–Haken–Hon; %s)\n\n", hostLine())
	fmt.Printf("%10s %10s %12s %12s\n", "N boxes", "stops", "maxActive", "time")
	for n := 4096; n <= 262144; n *= 4 {
		w := gen.Statistical(n, 42)
		res, dur := timedExtract(w.File)
		fmt.Printf("%10d %10d %12d %12s\n",
			n, res.Counters.Stops, res.Counters.MaxActive, round(dur))
	}
	fmt.Printf("\nBoth counters should double per 4x N (O(sqrt N)).\n")
}

func runMesh(n int) {
	w := gen.Mesh(n)
	res, dur := timedExtract(w.File)
	fmt.Printf("mesh %dx%d: boxes=%d devices=%d time=%v\n",
		n, n, res.Counters.BoxesIn, len(res.Netlist.Devices), dur)
}

// flagWorkers and flagFlattenWorkers are the -workers and
// -flatten-workers flags, threaded into every extraction the command
// runs; flagTimeout is the -timeout wall-clock budget for a plain
// extraction run.
var (
	flagName           string
	flagHier           bool
	flagCacheDir       string
	flagWorkers        int
	flagFlattenWorkers int
	flagTimeout        time.Duration
	flagLenient        bool
	flagCheck          bool
	flagDiagJSON       bool
	flagMaxBoxes       int64
	flagRepeat         int
)

// gcStart is the collector snapshot taken at process start; -stats and
// -stats-json report the delta against it. iterNs collects the
// per-iteration wall clocks of a -repeat run.
var (
	gcStart prof.GCStats
	iterNs  []int64
)

// recordIter logs one -repeat iteration: echoed immediately so a slow
// warm-up is visible, and collected for -stats-json.
func recordIter(d time.Duration) {
	fmt.Fprintf(os.Stderr, "ace: iter %d: %v\n", len(iterNs), d)
	iterNs = append(iterNs, d.Nanoseconds())
}

// extractCtx returns the context for a -timeout-bounded extraction and
// its cancel function (a no-op context when no timeout is set).
func extractCtx() (context.Context, context.CancelFunc) {
	if flagTimeout > 0 {
		return context.WithTimeout(context.Background(), flagTimeout)
	}
	return nil, func() {}
}

func timedExtract(f *cif.File) (*extract.Result, time.Duration) {
	t0 := time.Now()
	res, err := extract.File(f, extract.Options{Workers: flagWorkers, FlattenWorkers: flagFlattenWorkers})
	if err != nil {
		fatal(err)
	}
	return res, time.Since(t0)
}

func drainBoxes(f *cif.File) ([]frontend.Box, []frontend.Label) {
	stream, err := frontend.New(f, frontend.Options{})
	if err != nil {
		fatal(err)
	}
	boxes := stream.Drain()
	return boxes, stream.Labels()
}

func round(d time.Duration) string { return d.Round(time.Millisecond).String() }

func hostLine() string {
	return fmt.Sprintf("%s on %s/%s, %d CPUs", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
}
