package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"ace/internal/diag"
	"ace/internal/guard"
	"ace/internal/store"
	"ace/internal/tile"
)

func TestExitCodeFor(t *testing.T) {
	le := &guard.LimitError{Stage: guard.StageParse, What: "boxes", Value: 2, Limit: 1}
	cases := []struct {
		err  error
		want int
	}{
		{nil, ExitOK},
		{errors.New("plain failure"), ExitFindings},
		{context.DeadlineExceeded, ExitTimeout},
		{context.Canceled, ExitTimeout},
		{&guard.StageError{Stage: guard.StageSweep, Err: context.DeadlineExceeded}, ExitTimeout},
		{le, ExitLimit},
		{&guard.StageError{Stage: guard.StageParse, Err: le}, ExitLimit},
		{&guard.LimitError{Stage: guard.StageAdmit, What: guard.WhatConcurrent, Value: 9, Limit: 8}, ExitLimit},
		{&tile.CorruptError{Region: "footer", Msg: "checksum mismatch"}, ExitCorrupt},
		{&store.CorruptError{Path: "x.e", Reason: "bad magic"}, ExitCorrupt},
		{&guard.StageError{Stage: guard.StageExtract, Err: &tile.CorruptError{Region: "tile[0,0]", Msg: "truncated"}}, ExitCorrupt},
		// A raw disk fault is not corruption: the cache's read path
		// fails open (quarantine + recompute), so an I/O error that
		// does escape classifies as a plain failure, never ExitCorrupt.
		{fmt.Errorf("read cache entry: %w", syscall.EIO), ExitFindings},
		{fmt.Errorf("write cache entry: %w", syscall.ENOSPC), ExitFindings},
	}
	for _, c := range cases {
		if got := ExitCodeFor(c.err); got != c.want {
			t.Errorf("ExitCodeFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestExit(t *testing.T) {
	var s diag.Set
	if Exit(&s) != ExitOK {
		t.Fatal("empty set should exit 0")
	}
	s.Add(diag.New(diag.Warning, "check", "ratio", "weak"))
	if Exit(&s) != ExitOK {
		t.Fatal("warnings alone should exit 0")
	}
	s.Add(diag.New(diag.Error, "cif/parse", "bad-operand", "boom"))
	if Exit(&s) != ExitFindings {
		t.Fatal("errors should exit 1")
	}
}

func TestRenderDiagnostics(t *testing.T) {
	var s diag.Set
	s.Add(diag.New(diag.Error, "cif/parse", "bad-operand", "boom"))
	var jsonW, textW bytes.Buffer
	if err := RenderDiagnostics("chip.cif", &s, false, &jsonW, &textW); err != nil {
		t.Fatal(err)
	}
	if jsonW.Len() != 0 || !strings.Contains(textW.String(), "bad-operand") {
		t.Fatalf("text mode wrote to wrong stream: json %q text %q", jsonW.String(), textW.String())
	}
	jsonW.Reset()
	textW.Reset()
	if err := RenderDiagnostics("chip.cif", &s, true, &jsonW, &textW); err != nil {
		t.Fatal(err)
	}
	if textW.Len() != 0 || !strings.Contains(jsonW.String(), "\"diagnostics\"") {
		t.Fatalf("json mode wrote to wrong stream: json %q text %q", jsonW.String(), textW.String())
	}
}

func TestWriteOutput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.wl")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A failed write leaves the existing file and no temporary behind.
	boom := errors.New("boom")
	err := WriteOutput(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if b, _ := os.ReadFile(path); string(b) != "old" {
		t.Fatalf("failed write changed the file to %q", b)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("failed write left %d entries, want 1", len(ents))
	}
	// A successful write replaces it whole, readable like os.Create's.
	if err := WriteOutput(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "new" || st.Mode().Perm() != 0o644 {
		t.Fatalf("got %q mode %v, want \"new\" mode 0644", b, st.Mode().Perm())
	}
}
