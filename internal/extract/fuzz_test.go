package extract

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ace/internal/guard"
)

// FuzzExtract drives arbitrary bytes through the full pipeline —
// parse, flatten, sweep, wirelist counters — in every pipeline shape,
// under tight resource budgets. The invariant is the robustness
// contract end to end: malformed or hostile input may be rejected with
// an error, but must never panic (a *guard.PanicError surfacing from
// the panic-isolated pipeline IS a caught crash, so it fails the
// fuzz), never blow the budgets' memory, and never disagree between
// the serial and parallel shapes when it is accepted.
func FuzzExtract(f *testing.F) {
	names, _ := filepath.Glob(filepath.Join("testdata", "*.cif"))
	for _, n := range names {
		if data, err := os.ReadFile(n); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte("L NM; B 100 100 0 0;\nE\n"))
	f.Add([]byte("DS 1 2 1;\nL ND; B 50 250 0 0;\nDF;\nC 1;\nC 1 T 300 0 MX;\nE\n"))
	f.Add([]byte("DS 1 1 1;\nL NP; W 20 0 0 100 0 100 100;\nDF;\nDS 2 1 1;\nC 1;\nC 1 R 0 -1;\nDF;\nC 2;\n94 A 0 0 NP;\nE\n"))
	f.Add([]byte("P 0 0 800 0 800 1800 400 2400;\nE"))
	// A round flash whose bands alone would exhaust memory.
	f.Add([]byte("L NP; R 900000000 0 0;"))
	// Malformed seeds: the recovery corpus exercises every resync path.
	malformed, _ := filepath.Glob(filepath.Join("..", "cif", "testdata", "malformed", "*.cif"))
	for _, n := range malformed {
		if data, err := os.ReadFile(n); err == nil {
			f.Add(data)
		}
	}

	lim := guard.Limits{
		MaxBoxes:         20000,
		MaxExpandedBoxes: 20000,
		MaxDepth:         64,
		MaxMemBytes:      16 << 20,
	}
	shapes := []Options{
		{Limits: lim},
		{Workers: 2, Limits: lim},
		{FlattenWorkers: 2, Limits: lim},
		{FlattenWorkers: 2, Workers: 2, Limits: lim},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		var devices, nets = -1, -1
		for _, opt := range shapes {
			res, err := StringContext(ctx, string(data), opt)
			if err != nil {
				var pe *guard.PanicError
				if errors.As(err, &pe) {
					t.Fatalf("pipeline panicked in %s: %v\n%s", pe.Stage, pe.Value, pe.Stack)
				}
				continue
			}
			if devices == -1 {
				devices, nets = len(res.Netlist.Devices), len(res.Netlist.Nets)
				continue
			}
			if len(res.Netlist.Devices) != devices || len(res.Netlist.Nets) != nets {
				t.Fatalf("shapes disagree: %+v got %d devices / %d nets, first shape got %d / %d",
					opt, len(res.Netlist.Devices), len(res.Netlist.Nets), devices, nets)
			}
		}

		// Lenient shape: recovery may reject only with typed errors
		// (budgets, cancellation), never a caught panic, and on inputs
		// with no error diagnostics it must agree exactly with strict.
		lres, lerr := StringContext(ctx, string(data), Options{Lenient: true, Limits: lim})
		if lerr != nil {
			var pe *guard.PanicError
			if errors.As(lerr, &pe) {
				t.Fatalf("lenient pipeline panicked in %s: %v\n%s", pe.Stage, pe.Value, pe.Stack)
			}
			var le *guard.LimitError
			if !errors.As(lerr, &le) && !errors.Is(lerr, context.DeadlineExceeded) {
				t.Fatalf("lenient rejected input with untyped error: %v", lerr)
			}
			return
		}
		if lres.Diagnostics.Len() == 0 && devices == -1 {
			t.Fatalf("lenient clean (zero diagnostics) but strict rejected the input")
		}
		if devices != -1 {
			// Strict accepted: lenient must agree exactly (a warning-only
			// set is fine — strict records the same warnings as strings).
			if lres.Diagnostics.Errors() > 0 {
				t.Fatalf("strict accepted input but lenient reports error diagnostics: %v",
					lres.Diagnostics.All())
			}
			if len(lres.Netlist.Devices) != devices || len(lres.Netlist.Nets) != nets {
				t.Fatalf("lenient disagrees with strict on clean input: %d devices / %d nets vs %d / %d",
					len(lres.Netlist.Devices), len(lres.Netlist.Nets), devices, nets)
			}
		}
	})
}
