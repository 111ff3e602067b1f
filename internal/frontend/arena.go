package frontend

import (
	"sync"

	"ace/internal/geom"
	"ace/internal/guard"
)

// Arena owns the front end's reusable allocation state: lazy Streams
// (their queues, entry slabs, label lists and memo tables) and the box
// buffers the pre-flattener stamps runs into. A long-lived caller
// (extract.Engine) threads one Arena through Options.Arena so repeated
// instantiation of same-shaped workloads stops allocating.
//
// The Arena is a mutex-guarded free list, safe for concurrent use; a
// nil *Arena degrades to plain allocation everywhere, so call sites
// need no guards. Reuse is explicit: a Stream or box buffer handed
// back with PutStream/PutBoxBuf may be reissued at any time, so the
// caller must be done with everything it returned (extraction Results
// copy all they keep).
type Arena struct {
	mu       sync.Mutex
	streams  []*Stream
	boxBufs  [][]Box
	geoScrts []*geom.BoxScratch
}

// NewArena returns an empty Arena.
func NewArena() *Arena { return &Arena{} }

// getStream returns a reset Stream, pooled when available.
func (a *Arena) getStream() *Stream {
	if a == nil {
		return &Stream{bboxes: map[int]geom.Rect{}}
	}
	a.mu.Lock()
	var s *Stream
	if n := len(a.streams); n > 0 {
		s = a.streams[n-1]
		a.streams[n-1] = nil
		a.streams = a.streams[:n-1]
	}
	a.mu.Unlock()
	if s == nil {
		return &Stream{bboxes: map[int]geom.Rect{}}
	}
	s.reset()
	return s
}

// PutStream returns a Stream's state to the arena, drained or not: a
// Stream abandoned mid-drain is reset like any other. Every slice the
// Stream handed out (Labels; Drain results already belong to the
// caller) must be dead or copied; the next NewItems with this arena
// reuses the backing memory.
func (a *Arena) PutStream(s *Stream) {
	if a == nil || s == nil {
		return
	}
	a.mu.Lock()
	a.streams = append(a.streams, s)
	a.mu.Unlock()
}

// GetBoxBuf returns an empty box buffer with whatever capacity the
// arena has spare (nil when none).
func (a *Arena) GetBoxBuf() []Box {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.boxBufs); n > 0 {
		b := a.boxBufs[n-1]
		a.boxBufs[n-1] = nil
		a.boxBufs = a.boxBufs[:n-1]
		return b[:0]
	}
	return nil
}

// PutBoxBuf returns a box buffer's capacity to the arena.
func (a *Arena) PutBoxBuf(b []Box) {
	if a == nil || cap(b) == 0 {
		return
	}
	a.mu.Lock()
	a.boxBufs = append(a.boxBufs, b[:0])
	a.mu.Unlock()
}

// GetBoxScratch returns a pooled polygon/wire decomposition scratch
// (a fresh one when the arena is nil or empty). The pre-flattener's
// instance workers each draw their own, so a scratch is never shared
// across goroutines.
func (a *Arena) GetBoxScratch() *geom.BoxScratch {
	if a == nil {
		return &geom.BoxScratch{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.geoScrts); n > 0 {
		sc := a.geoScrts[n-1]
		a.geoScrts[n-1] = nil
		a.geoScrts = a.geoScrts[:n-1]
		return sc
	}
	return &geom.BoxScratch{}
}

// PutBoxScratch returns a decomposition scratch to the arena. Every
// slice it handed out must be dead or copied.
func (a *Arena) PutBoxScratch(sc *geom.BoxScratch) {
	if a == nil || sc == nil {
		return
	}
	a.mu.Lock()
	a.geoScrts = append(a.geoScrts, sc)
	a.mu.Unlock()
}

// reset clears a pooled Stream for its next design, keeping capacity.
func (s *Stream) reset() {
	s.syms = nil
	s.grid = 0
	s.keepNG = false
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	s.floor = 0
	s.queued = 0
	s.slab = s.slab[:0]
	s.free = s.free[:0]
	s.labels = s.labels[:0]
	s.stats = Stats{}
	s.bbox = geom.Rect{}
	s.hasBB = false
	clear(s.bboxes)
	clear(s.labelMemo)
	clear(s.impureMemo)
	s.callSink = nil
	s.banned = nil
	s.limits = guard.Limits{}
}
