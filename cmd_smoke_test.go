package ace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCommandSmoke builds every CLI and drives the full shell design
// loop: generate → plot → drc → extract (flat, raster, hierarchical) →
// compare → check → simulate → flatten.
func TestCommandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"ace", "hext", "partlist", "cifgen", "wl", "drc", "layplot"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		bins[name] = out
	}
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bins[name], args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	cif := filepath.Join(dir, "chain.cif")
	run("cifgen", "-w", "chain", "-n", "3", "-o", cif)

	// Plot and rule-check.
	png := filepath.Join(dir, "chain.png")
	run("layplot", "-o", png, cif)
	if st, err := os.Stat(png); err != nil || st.Size() == 0 {
		t.Fatalf("no png produced: %v", err)
	}
	if out := run("drc", cif); !strings.Contains(out, "clean") {
		t.Fatalf("drc: %s", out)
	}
	if out := run("drc", "-hier", "-tile", "36", cif); !strings.Contains(out, "clean") {
		t.Fatalf("drc -hier: %s", out)
	}

	// Extract three ways and compare.
	flat := filepath.Join(dir, "flat.wl")
	run("ace", "-o", flat, cif)
	rast := filepath.Join(dir, "rast.wl")
	run("partlist", "-o", rast, cif)
	hier := filepath.Join(dir, "hier.hwl")
	run("hext", "-hier", "-o", hier, cif)
	if out := run("wl", "compare", flat, rast); !strings.Contains(out, "equivalent") {
		t.Fatalf("compare flat/raster: %s", out)
	}
	if out := run("wl", "compare", flat, hier); !strings.Contains(out, "equivalent") {
		t.Fatalf("compare flat/hier: %s", out)
	}

	// Flatten the hierarchical wirelist and check/simulate it.
	if out := run("wl", "flatten", hier); !strings.Contains(out, "DefPart") {
		t.Fatalf("flatten: %s", out)
	}
	if out := run("wl", "check", flat); !strings.Contains(out, "0 errors") {
		t.Fatalf("check: %s", out)
	}
	if out := run("wl", "sim", flat, "IN=1"); !strings.Contains(out, "OUT = 0") {
		t.Fatalf("sim: %s", out)
	}

	// Stats and table harnesses at tiny scale.
	if out := run("ace", "-stats", cif); !strings.Contains(out, "devices=6") {
		t.Fatalf("stats: %s", out)
	}
	if out := run("hext", "-stats", cif); !strings.Contains(out, "devices=6") {
		t.Fatalf("hext stats: %s", out)
	}
	if out := run("ace", "-table51", "-scale", "0.002"); !strings.Contains(out, "riscb") {
		t.Fatalf("table51: %s", out)
	}
	if out := run("hext", "-table52", "-scale", "0.002"); !strings.Contains(out, "compose") {
		t.Fatalf("hext table52: %s", out)
	}
}

// TestPersistentCacheSmoke drives the -cache-dir flag across real
// processes: a cold run populates the directory, a second process
// reads it back (identical wirelist, diskHits > 0 in -stats), two
// concurrent processes share it safely, and ace -cache-dir delegates
// to the hierarchical engine with the same bytes.
func TestPersistentCacheSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"ace", "hext", "cifgen"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		bins[name] = out
	}
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bins[name], args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	cif := filepath.Join(dir, "chain.cif")
	run("cifgen", "-w", "chain", "-n", "3", "-o", cif)
	cache := filepath.Join(dir, "cache")

	// Cold process populates; warm process answers from disk with the
	// same bytes.
	cold := run("hext", "-cache-dir", cache, cif)
	warm := run("hext", "-cache-dir", cache, cif)
	if cold != warm {
		t.Fatalf("warm process output differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	if ents, err := os.ReadDir(cache); err != nil || len(ents) == 0 {
		t.Fatalf("cache directory not populated: %v", err)
	}
	stats := run("hext", "-cache-dir", cache, "-stats", cif)
	if !strings.Contains(stats, "diskHits=") || strings.Contains(stats, "diskHits=0 ") {
		t.Fatalf("warm -stats reports no disk hits:\n%s", stats)
	}

	// The plain run (no cache) agrees byte-for-byte.
	if plain := run("hext", cif); plain != cold {
		t.Fatalf("cached output differs from uncached:\n%s\nvs\n%s", plain, cold)
	}

	// ace -cache-dir delegates to the hierarchical engine: same bytes
	// as ace -hier, warm or cold. (ace names the netlist after the
	// input path where hext uses the design's name, so the comparison
	// baseline is ace's own hierarchical mode.)
	viaHier := run("ace", "-hier", cif)
	if viaAce := run("ace", "-cache-dir", cache, cif); viaAce != viaHier {
		t.Fatalf("ace -cache-dir differs from ace -hier:\n%s\nvs\n%s", viaAce, viaHier)
	}

	// Two processes sharing one directory concurrently: both succeed
	// and agree.
	fresh := filepath.Join(dir, "shared-cache")
	type res struct {
		out string
		err error
	}
	ch := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func() {
			out, err := exec.Command(bins["hext"], "-cache-dir", fresh, cif).CombinedOutput()
			ch <- res{string(out), err}
		}()
	}
	a, b := <-ch, <-ch
	if a.err != nil || b.err != nil {
		t.Fatalf("concurrent cache-dir runs failed: %v / %v\n%s\n%s", a.err, b.err, a.out, b.out)
	}
	if a.out != b.out || a.out != cold {
		t.Fatalf("concurrent runs disagree:\n%s\nvs\n%s", a.out, b.out)
	}
}

// TestExitCodeTaxonomy pins the shared exit-code contract of ace and
// hext: 0 clean, 1 Error-severity diagnostics (or plain failure), 2

// TestOutputFilesSmoke pins what the CLIs leave on disk: -stats never
// opens, let alone truncates, the -o file; -o holds exactly the bytes
// stdout would; and a -cpuprofile is written on every exit path,
// including -stats, -phases-only and a non-zero findings exit.
func TestOutputFilesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"ace", "hext", "cifgen", "partlist", "layplot"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		bins[name] = out
	}
	// run returns stdout and the exit code.
	run := func(name string, args ...string) ([]byte, int) {
		t.Helper()
		cmd := exec.Command(bins[name], args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%s %v: %v", name, args, err)
		}
		if code != 0 {
			t.Logf("%s %v: exit %d\n%s", name, args, code, stderr.Bytes())
		}
		return stdout.Bytes(), code
	}
	out := filepath.Join(dir, "out")
	cif := filepath.Join(dir, "chain.cif")
	if _, code := run("cifgen", "-w", "chain", "-n", "3", "-o", cif); code != 0 {
		t.Fatal("cifgen failed")
	}
	bad := filepath.Join(dir, "bad.cif")
	if err := os.WriteFile(bad, []byte("DS 1 1 1;\nL ND;\nB 10 10 5 5\nB bogus;\nDF;\nC 1;\nE\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// -o is byte-identical to stdout. layplot writes a file by
	// default and stdout under -o "".
	for _, c := range [][]string{
		{"ace"}, {"ace", "-g"}, {"ace", "-hier"}, {"hext"}, {"hext", "-hier"},
		{"partlist"}, {"layplot", "-size", "64", "-o", ""},
		{"cifgen", "-w", "chain", "-n", "3"}, {"cifgen", "-target-boxes", "2000"},
	} {
		flags, in := c[1:len(c):len(c)], []string{cif}
		if c[0] == "cifgen" {
			in = nil // generates its input
		}
		want, code := run(c[0], append(flags, in...)...)
		if code != 0 || len(want) == 0 {
			t.Fatalf("%v: exit %d, %d bytes", c, code, len(want))
		}
		if _, code := run(c[0], append(append(flags, "-o", out), in...)...); code != 0 {
			t.Fatalf("%v -o: exit %d", c, code)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v -o: file differs from stdout (%v)\nfile:\n%s\nstdout:\n%s", c, err, got, want)
		}
	}

	// A failed write is a failed run.
	if _, err := os.Stat("/dev/full"); err == nil {
		for _, c := range [][]string{{"partlist", cif}, {"layplot", cif}, {"cifgen", "-w", "chain"}, {"ace", cif}} {
			if _, code := run(c[0], append([]string{"-o", "/dev/full"}, c[1:]...)...); code == 0 {
				t.Fatalf("%v -o /dev/full: exit 0", c)
			}
		}
	}

	// -stats and -phases-only print a summary and leave -o alone.
	const precious = "an earlier run's wirelist\n"
	for _, c := range [][]string{{"ace", "-stats"}, {"ace", "-phases-only"}, {"ace", "-hier", "-stats"}, {"hext", "-stats"}} {
		if err := os.WriteFile(out, []byte(precious), 0o644); err != nil {
			t.Fatal(err)
		}
		if stdout, code := run(c[0], append(c[1:], "-o", out, cif)...); code != 0 || !bytes.Contains(stdout, []byte("devices=6")) {
			t.Fatalf("%v -o: exit %d\n%s", c, code, stdout)
		}
		if got, err := os.ReadFile(out); err != nil || string(got) != precious {
			t.Fatalf("%v -o clobbered the existing file: %q (%v)", c, got, err)
		}
	}

	// The CPU profile is complete on every exit path.
	prof := filepath.Join(dir, "cpu.pprof")
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"hext", "-stats", cif}, 0},
		{[]string{"hext", "-lenient", bad}, 1},
		{[]string{"ace", "-stats", cif}, 0},
		{[]string{"ace", "-phases-only", cif}, 0},
		{[]string{"ace", "-lenient", bad}, 1},
		{[]string{"ace", "-hier", "-lenient", bad}, 1},
	} {
		os.Remove(prof)
		args := append([]string{"-cpuprofile", prof}, c.args[1:]...)
		if _, code := run(c.args[0], args...); code != c.code {
			t.Fatalf("%v: exit %d, want %d", c.args, code, c.code)
		}
		if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
			t.Fatalf("%v: CPU profile empty or missing (%v)", c.args, err)
		}
	}

	// Atomic outputs leave no staging temporaries behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("leftover temporary %s", e.Name())
		}
	}
}

// usage, 3 timeout, 4 resource budget.
func TestExitCodeTaxonomy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"ace", "hext", "cifgen", "cifpack"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		bins[name] = out
	}
	// runCode returns the exit code plus captured stdout and stderr.
	runCode := func(name string, args ...string) (int, string, string) {
		t.Helper()
		cmd := exec.Command(bins[name], args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%s %v: %v", name, args, err)
		}
		return code, stdout.String(), stderr.String()
	}

	clean := filepath.Join(dir, "chain.cif")
	if code, _, errOut := runCode("cifgen", "-w", "chain", "-n", "3", "-o", clean); code != 0 {
		t.Fatalf("cifgen: %d\n%s", code, errOut)
	}
	bad := filepath.Join(dir, "bad.cif")
	if err := os.WriteFile(bad,
		[]byte("DS 1 1 1;\nL ND;\nB 10 10 5 5\nB bogus;\nB 20 20 100 100;\nDF;\nC 1;\nE\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, prog := range []string{"ace", "hext"} {
		// 0: clean extraction, also with the checker attached.
		if code, out, errOut := runCode(prog, clean); code != 0 || out == "" {
			t.Fatalf("%s clean: code %d\n%s", prog, code, errOut)
		}
		if code, _, errOut := runCode(prog, "-check", clean); code != 0 {
			t.Fatalf("%s -check clean: code %d\n%s", prog, code, errOut)
		}

		// 1: strict parse failure, with today's located message.
		if code, _, errOut := runCode(prog, bad); code != 1 ||
			!strings.Contains(errOut, "cif: line 4:") {
			t.Fatalf("%s strict bad: code %d stderr %q", prog, code, errOut)
		}

		// 1: lenient still signals the damage, but renders diagnostics
		// and a salvaged wirelist.
		code, out, errOut := runCode(prog, "-lenient", bad)
		if code != 1 {
			t.Fatalf("%s -lenient bad: code %d", prog, code)
		}
		if !strings.Contains(errOut, "missing-semicolon") || !strings.Contains(errOut, "bad.cif:4:1:") {
			t.Fatalf("%s -lenient bad: stderr %q", prog, errOut)
		}
		if !strings.Contains(out, "DefPart") {
			t.Fatalf("%s -lenient bad: no salvaged wirelist:\n%s", prog, out)
		}

		// 1 + machine-readable report on stdout.
		code, out, _ = runCode(prog, "-lenient", "-diag-json", bad)
		if code != 1 {
			t.Fatalf("%s -diag-json: code %d", prog, code)
		}
		var report struct {
			Errors      int               `json:"errors"`
			Diagnostics []json.RawMessage `json:"diagnostics"`
		}
		if err := json.Unmarshal([]byte(out), &report); err != nil {
			t.Fatalf("%s -diag-json output is not JSON: %v\n%s", prog, err, out)
		}
		if report.Errors == 0 || len(report.Diagnostics) == 0 {
			t.Fatalf("%s -diag-json: empty report:\n%s", prog, out)
		}

		// 2: usage error (flag package convention).
		if code, _, _ := runCode(prog, "-no-such-flag"); code != 2 {
			t.Fatalf("%s usage: code %d", prog, code)
		}

		// 3: wall-clock budget expired.
		if code, _, errOut := runCode(prog, "-timeout", "1ns", clean); code != 3 {
			t.Fatalf("%s timeout: code %d\n%s", prog, code, errOut)
		}

		// 4: resource budget exceeded.
		if code, _, errOut := runCode(prog, "-max-boxes", "1", clean); code != 4 {
			t.Fatalf("%s max-boxes: code %d\n%s", prog, code, errOut)
		}
	}

	// 5: corrupt on-disk artifacts. A damaged packed tile file and a
	// damaged persistent-cache entry are data corruption, not input
	// findings, and get their own code.
	actb := filepath.Join(dir, "chain.actb")
	if code, _, errOut := runCode("cifpack", "-o", actb, clean); code != 0 {
		t.Fatalf("cifpack: code %d\n%s", code, errOut)
	}
	packed, err := os.ReadFile(actb)
	if err != nil {
		t.Fatal(err)
	}
	packed[len(packed)/2] ^= 0x20
	badTiles := filepath.Join(dir, "bad.actb")
	if err := os.WriteFile(badTiles, packed, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errOut := runCode("ace", "-tiles", badTiles); code != 5 {
		t.Fatalf("ace -tiles corrupt: code %d, want 5\n%s", code, errOut)
	}

	cache := filepath.Join(dir, "cache")
	if code, _, errOut := runCode("hext", "-cache-dir", cache, clean); code != 0 {
		t.Fatalf("hext -cache-dir: code %d\n%s", code, errOut)
	}
	if code, out, errOut := runCode("hext", "-cache-verify", "-cache-dir", cache); code != 0 ||
		!strings.Contains(out, "0 corrupt") {
		t.Fatalf("hext -cache-verify clean: code %d\n%s%s", code, out, errOut)
	}
	ents, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, de := range ents {
		if !strings.HasSuffix(de.Name(), ".e") {
			continue
		}
		p := filepath.Join(cache, de.Name())
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x20
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted = true
		break
	}
	if !corrupted {
		t.Fatal("cache directory holds no entries to corrupt")
	}
	if code, _, errOut := runCode("hext", "-cache-verify", "-cache-dir", cache); code != 5 ||
		!strings.Contains(errOut, "store:") {
		t.Fatalf("hext -cache-verify corrupt: code %d, want 5\n%s", code, errOut)
	}
	// The sweep quarantined the damage, so a second verify is clean.
	if code, _, errOut := runCode("hext", "-cache-verify", "-cache-dir", cache); code != 0 {
		t.Fatalf("hext -cache-verify after quarantine: code %d\n%s", code, errOut)
	}
}

// TestTiledCLISmoke drives the out-of-core loop across real
// processes: stream a size-targeted chip, pack it to the tiled format,
// extract it from tiles under a hard GOMEMLIMIT, and confirm the
// wirelist matches the in-RAM pipeline byte for byte. Windowed queries
// must report touching a small fraction of the file, and a corrupted
// file must fail with a diagnostic, not a panic.
func TestTiledCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"ace", "cifgen", "cifpack"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		bins[name] = out
	}
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bins[name], args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	cif := filepath.Join(dir, "chip.cif")
	run("cifgen", "-target-boxes", "50000", "-o", cif)
	actb := filepath.Join(dir, "chip.actb")
	// A crashed pack's leftover temp (dead pid): cifpack must sweep it
	// on startup, and its own atomic publish must leave no temps.
	orphan := filepath.Join(dir, ".tmp-999999999-crashed")
	if err := os.WriteFile(orphan, []byte("partial pack"), 0o644); err != nil {
		t.Fatal(err)
	}
	run("cifpack", "-o", actb, cif)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("cifpack left the orphaned temp in place: %v", err)
	}
	if ents, err := os.ReadDir(dir); err == nil {
		for _, de := range ents {
			if strings.HasPrefix(de.Name(), ".tmp-") {
				t.Fatalf("cifpack left its own temp behind: %s", de.Name())
			}
		}
	}
	if out := run("cifpack", "-info", actb); !strings.Contains(out, "boxes") {
		t.Fatalf("cifpack -info: %s", out)
	}
	if out := run("cifpack", "-verify", actb); !strings.Contains(out, "ok") {
		t.Fatalf("cifpack -verify: %s", out)
	}

	// Byte-identity across sources and worker counts, with the tiled
	// runs under a memory limit far below the flattened chip.
	ref := run("ace", "-name", "chip", "-workers", "1", cif)
	for _, workers := range []string{"1", "4"} {
		stats := filepath.Join(dir, "stats"+workers+".json")
		cmd := exec.Command(bins["ace"], "-name", "chip", "-workers", workers,
			"-tiles", actb, "-stats-json", stats)
		cmd.Env = append(os.Environ(), "GOMEMLIMIT=16MiB")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("ace -tiles -workers %s: %v\n%s", workers, err, out)
		}
		if string(out) != ref {
			t.Fatalf("tiled wirelist differs from in-RAM at workers=%s", workers)
		}
		var st struct {
			PeakRSSBytes int64 `json:"peak_rss_bytes"`
			TilesDecoded int64 `json:"tiles_decoded"`
			TilesTotal   int64 `json:"tiles_total"`
		}
		b, err := os.ReadFile(stats)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("stats-json: %v\n%s", err, b)
		}
		if st.PeakRSSBytes <= 0 || st.TilesDecoded <= 0 || st.TilesTotal <= 0 {
			t.Fatalf("stats-json missing counters: %+v", st)
		}
	}

	// A windowed query touches O(window) tiles and says so.
	out := run("ace", "-tiles", actb, "-window", "0,0,100000,100000", "-stats")
	if !strings.Contains(out, "tiles: decoded=") || !strings.Contains(out, "peakRSS=") {
		t.Fatalf("window -stats missing tile counters:\n%s", out)
	}

	// Corruption fails soft: diagnostic and nonzero exit, no panic.
	data, err := os.ReadFile(actb)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	bad := filepath.Join(dir, "bad.actb")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bins["ace"], "-tiles", bad)
	b, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("corrupt tile file extracted without error:\n%s", b)
	}
	if strings.Contains(string(b), "panic") {
		t.Fatalf("corrupt tile file panicked:\n%s", b)
	}
}

// TestServeCLISmoke boots the real aced binary, attacks it with the
// real acebomb binary, and then shuts it down gracefully: the
// cross-process half of the service-mode contract (the in-process half
// lives in internal/serve's tests).
func TestServeCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"aced", "acebomb"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		bins[name] = out
	}

	// Boot the daemon on an ephemeral port, budgets armed so acebomb's
	// hierarchy bombs die on limits rather than the request timeout.
	daemon := exec.Command(bins["aced"],
		"-addr", "127.0.0.1:0",
		"-max-boxes", "200000", "-max-expanded-boxes", "200000",
		"-max-body-bytes", "1048576", // matches acebomb's default -body-cap
		"-queue-wait", "250ms",
		"-cache-dir", filepath.Join(dir, "cache"),
		"-drain-timeout", "30s",
	)
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var daemonErr bytes.Buffer
	daemon.Stderr = &daemonErr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill()

	// The first stdout line announces the resolved address.
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("no listen line from aced: %v (stderr: %s)", err, daemonErr.String())
	}
	addr := strings.TrimSpace(strings.TrimPrefix(line, "aced: listening on "))
	if addr == line || addr == "" {
		t.Fatalf("unexpected aced banner: %q", line)
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	// The adversarial mix must pass every invariant, cross-process.
	bomb := exec.Command(bins["acebomb"], "-url", "http://"+addr, "-duration", "3s", "-clients", "6")
	out, err := bomb.CombinedOutput()
	if err != nil {
		t.Fatalf("acebomb failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "acebomb: PASS") {
		t.Fatalf("acebomb did not report PASS:\n%s", out)
	}

	// Graceful shutdown: SIGTERM drains and exits cleanly.
	if err := daemon.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("aced exited dirty after SIGINT: %v (stderr: %s)", err, daemonErr.String())
		}
	case <-time.After(45 * time.Second):
		t.Fatal("aced did not exit after SIGINT")
	}
	if !strings.Contains(daemonErr.String(), "drained cleanly") {
		t.Fatalf("no clean-drain confirmation; stderr:\n%s", daemonErr.String())
	}
}
