package main

import (
	"io/fs"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"ace/internal/frontend"
	"ace/internal/prof"
	"ace/internal/scan"
	"ace/internal/vfs"
)

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM), so that the
// peak read later belongs to the measured part of the run. Where the
// kernel refuses, the peak also covers set-up.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func peakRSSBytes() int64 { return prof.PeakRSSBytes() }

// memSnap is the part of runtime.MemStats a timed call is charged for.
type memSnap struct {
	mallocs, bytes uint64
	numGC          uint32
	pauseNs        uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs}
}

// memDelta is what happened to the heap between two snapshots.
type memDelta struct {
	allocs, bytes float64
	gcs           float64
	pauseMs       float64
}

func (a memSnap) since(b memSnap) memDelta {
	return memDelta{
		allocs:  float64(a.mallocs - b.mallocs),
		bytes:   float64(a.bytes - b.bytes),
		gcs:     float64(a.numGC - b.numGC),
		pauseMs: float64(a.pauseNs-b.pauseNs) / 1e6,
	}
}

// timedCall runs fn and returns its wall time and heap delta.
func timedCall(fn func() error) (time.Duration, memDelta, error) {
	m0 := readMem()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	return d, readMem().since(m0), err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timedSource wraps a scan.Source and adds up the time spent inside it:
// the front end's (or the tile decoder's) share of a sweep.
type timedSource struct {
	inner scan.Source
	spent time.Duration
}

func (t *timedSource) NextTop() (int64, bool) {
	s := time.Now()
	y, ok := t.inner.NextTop()
	t.spent += time.Since(s)
	return y, ok
}

func (t *timedSource) Next() (frontend.Box, bool) {
	s := time.Now()
	b, ok := t.inner.Next()
	t.spent += time.Since(s)
	return b, ok
}

// ioStats are the counters of a timingFS. Times are in nanoseconds;
// openNs covers the namespace calls: Open, Create, CreateTemp, Stat and
// ReadDir.
type ioStats struct {
	openNs, readNs, writeNs, syncNs, renameNs atomic.Int64
	syncs, bytesRead, bytesWritten            atomic.Int64
}

// ioSnap is a plain copy of ioStats.
type ioSnap struct {
	openNs, readNs, writeNs, syncNs, renameNs int64
	syncs, bytesRead, bytesWritten            int64
}

func (s *ioStats) snap() ioSnap {
	return ioSnap{
		s.openNs.Load(), s.readNs.Load(), s.writeNs.Load(), s.syncNs.Load(), s.renameNs.Load(),
		s.syncs.Load(), s.bytesRead.Load(), s.bytesWritten.Load(),
	}
}

func (a ioSnap) sub(b ioSnap) ioSnap {
	return ioSnap{
		a.openNs - b.openNs, a.readNs - b.readNs, a.writeNs - b.writeNs, a.syncNs - b.syncNs,
		a.renameNs - b.renameNs, a.syncs - b.syncs, a.bytesRead - b.bytesRead, a.bytesWritten - b.bytesWritten,
	}
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

// timingFS is a vfs.FS that delegates every call to an inner FS and
// times it. Errors pass through unchanged, so the store and tile code
// above it behave exactly as on the inner FS.
type timingFS struct {
	inner vfs.FS
	st    *ioStats
}

func newTimingFS(inner vfs.FS) *timingFS { return &timingFS{inner: inner, st: &ioStats{}} }

func since(t0 time.Time) int64 { return int64(time.Since(t0)) }

func (f *timingFS) Open(name string) (vfs.File, error) {
	t0 := time.Now()
	h, err := f.inner.Open(name)
	f.st.openNs.Add(since(t0))
	if err != nil {
		return nil, err
	}
	return &timingFile{File: h, st: f.st}, nil
}

func (f *timingFS) Create(name string) (vfs.File, error) {
	t0 := time.Now()
	h, err := f.inner.Create(name)
	f.st.openNs.Add(since(t0))
	if err != nil {
		return nil, err
	}
	return &timingFile{File: h, st: f.st}, nil
}

func (f *timingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	t0 := time.Now()
	h, err := f.inner.CreateTemp(dir, pattern)
	f.st.openNs.Add(since(t0))
	if err != nil {
		return nil, err
	}
	return &timingFile{File: h, st: f.st}, nil
}

func (f *timingFS) ReadFile(name string) ([]byte, error) {
	t0 := time.Now()
	b, err := f.inner.ReadFile(name)
	f.st.readNs.Add(since(t0))
	f.st.bytesRead.Add(int64(len(b)))
	return b, err
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	t0 := time.Now()
	err := f.inner.Rename(oldpath, newpath)
	f.st.renameNs.Add(since(t0))
	return err
}

func (f *timingFS) Remove(name string) error { return f.inner.Remove(name) }

func (f *timingFS) Stat(name string) (fs.FileInfo, error) {
	t0 := time.Now()
	fi, err := f.inner.Stat(name)
	f.st.openNs.Add(since(t0))
	return fi, err
}

func (f *timingFS) ReadDir(name string) ([]fs.DirEntry, error) {
	t0 := time.Now()
	ents, err := f.inner.ReadDir(name)
	f.st.openNs.Add(since(t0))
	return ents, err
}

func (f *timingFS) MkdirAll(path string, perm fs.FileMode) error { return f.inner.MkdirAll(path, perm) }

func (f *timingFS) Chtimes(name string, atime, mtime time.Time) error {
	return f.inner.Chtimes(name, atime, mtime)
}

func (f *timingFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := f.inner.SyncDir(dir)
	f.st.syncNs.Add(since(t0))
	f.st.syncs.Add(1)
	return err
}

// timingFile times the reads, writes and syncs of one open file.
type timingFile struct {
	vfs.File
	st *ioStats
}

func (f *timingFile) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Read(p)
	f.st.readNs.Add(since(t0))
	f.st.bytesRead.Add(int64(n))
	return n, err
}

func (f *timingFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.st.readNs.Add(since(t0))
	f.st.bytesRead.Add(int64(n))
	return n, err
}

func (f *timingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.st.writeNs.Add(since(t0))
	f.st.bytesWritten.Add(int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.st.syncNs.Add(since(t0))
	f.st.syncs.Add(1)
	return err
}
