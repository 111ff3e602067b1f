// Package cli holds the glue shared by the ace and hext commands: the
// exit-code taxonomy and the diagnostics rendering conventions, so both
// binaries classify failures and print findings identically.
package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"ace/internal/diag"
	"ace/internal/guard"
	"ace/internal/store"
	"ace/internal/tile"
	"ace/internal/vfs"
)

// Exit codes. Package flag already exits with 2 on a bad flag
// (flag.ExitOnError), which this taxonomy deliberately adopts as the
// usage code.
const (
	// ExitOK: extraction succeeded and no Error-severity diagnostics
	// were reported.
	ExitOK = 0

	// ExitFindings: the run produced Error-severity diagnostics (parse
	// damage in lenient mode, checker errors), or failed outright for a
	// reason with no more specific code.
	ExitFindings = 1

	// ExitUsage: bad command line (flag package convention).
	ExitUsage = 2

	// ExitTimeout: the -timeout budget expired (context deadline).
	ExitTimeout = 3

	// ExitLimit: a guard.Limits resource budget was exceeded.
	ExitLimit = 4

	// ExitCorrupt: stored data failed integrity verification — a
	// packed tile file (*tile.CorruptError) or a persistent-cache
	// entry (*store.CorruptError). Distinct from ExitFindings because
	// the input design may be fine; it is the on-disk artifact that
	// needs re-packing or re-populating.
	//
	// Only primary inputs (a -tiles file) and explicit verification
	// commands (hext -cache-verify, cifpack -verify) can exit with
	// this code. The persistent cache itself fails open: a damaged or
	// unreadable entry on the read path is quarantined and recomputed
	// (surfacing only in diskErrors counters), so cache disk faults
	// never classify a run as corrupt.
	ExitCorrupt = 5
)

// ExitCodeFor classifies a pipeline error: context cancellation or
// deadline → ExitTimeout, *guard.LimitError → ExitLimit, tile or
// store corruption → ExitCorrupt, anything else → ExitFindings.
// (Stage wrappers are unwrapped, so a LimitError inside a
// *guard.StageError still classifies as ExitLimit.)
func ExitCodeFor(err error) int {
	if err == nil {
		return ExitOK
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return ExitTimeout
	}
	var le *guard.LimitError
	if errors.As(err, &le) {
		return ExitLimit
	}
	var tc *tile.CorruptError
	var sc *store.CorruptError
	if errors.As(err, &tc) || errors.As(err, &sc) {
		return ExitCorrupt
	}
	return ExitFindings
}

// Fatal prints "prog: err" to stderr and exits with the taxonomy code
// for err.
func Fatal(prog string, err error) {
	os.Exit(Fail(prog, err))
}

// Fail prints "prog: err" to stderr and returns the taxonomy code for
// err, for a command that hands its exit code back to main so that
// deferred work, such as stopping a CPU profile, still runs.
func Fail(prog string, err error) int {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	return ExitCodeFor(err)
}

// WriteOutput sends a command's -o output through write: to stdout
// when path is empty, otherwise to an atomic file that replaces path
// only once write and the commit succeed. A failed, full-disk or
// killed run therefore never leaves a truncated or partial file at
// path, and never touches a file it did not write. A path naming an
// existing device or pipe, such as /dev/null, cannot be replaced by a
// rename and is written in place.
func WriteOutput(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	if st, err := os.Stat(path); err == nil && !st.Mode().IsRegular() {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	af, err := vfs.NewAtomicFile(vfs.OS, path)
	if err != nil {
		return err
	}
	defer af.Abort()
	if err := write(af); err != nil {
		return err
	}
	// The staging temporary is private (0600); give the output the mode
	// os.Create would under the usual umask.
	if err := os.Chmod(af.TempName(), 0o644); err != nil {
		return err
	}
	return af.Commit()
}

// RenderDiagnostics writes the diagnostics set in the shared format:
// the JSON report to jsonW when jsonOut is set (machine consumption,
// conventionally stdout), the text rendering to textW otherwise
// (conventionally stderr, so the wirelist on stdout stays clean).
func RenderDiagnostics(file string, s *diag.Set, jsonOut bool, jsonW, textW io.Writer) error {
	if jsonOut {
		return diag.WriteJSON(jsonW, file, s)
	}
	return diag.WriteText(textW, file, s)
}

// Exit returns the taxonomy code for a finished run: ExitFindings when
// the set holds Error-severity diagnostics, ExitOK otherwise.
func Exit(s *diag.Set) int {
	if s.Errors() > 0 {
		return ExitFindings
	}
	return ExitOK
}
