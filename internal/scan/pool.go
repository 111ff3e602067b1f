package scan

import (
	"sync"

	"ace/internal/build"
	"ace/internal/frontend"
)

// Pool is a free list of sweep state — whole sweepers (with their
// builders, active lists and interval scratch), bare builders, and box
// buffers — owned by one long-lived engine. Threading a Pool through
// Options.Pool makes repeated sweeps of a same-shaped workload settle
// into zero steady-state allocations.
//
// Pools are deliberately per-engine rather than a global sync.Pool:
// concurrent engines never contend or exchange memory, the pooled
// capacity is bounded by the engine's own peak concurrency, and
// dropping the engine drops the memory. All methods are safe for
// concurrent use and on a nil *Pool (which degrades to plain
// allocation), so call sites need no guards.
type Pool struct {
	mu       sync.Mutex
	sweepers []*sweeper
	builders []*build.Builder
	boxBufs  [][]frontend.Box
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// getSweeper returns a sweeper bound to src and opt: a reset pooled
// one when available, a fresh one otherwise.
func (p *Pool) getSweeper(src Source, opt Options) *sweeper {
	if p == nil {
		return newSweeper(src, opt)
	}
	p.mu.Lock()
	var s *sweeper
	if n := len(p.sweepers); n > 0 {
		s = p.sweepers[n-1]
		p.sweepers[n-1] = nil
		p.sweepers = p.sweepers[:n-1]
	}
	p.mu.Unlock()
	if s == nil {
		return newSweeper(src, opt)
	}
	s.reset(src, opt)
	return s
}

// putSweeper returns a sweeper to the pool. Only sweepers whose run
// completed cleanly come back: an abandoned (failed or panicked)
// sweeper is simply dropped, which keeps the reset contract trivial.
func (p *Pool) putSweeper(s *sweeper) {
	if p == nil || s == nil {
		return
	}
	s.src = nil
	s.opt = Options{}
	p.mu.Lock()
	p.sweepers = append(p.sweepers, s)
	p.mu.Unlock()
}

// GetBuilder returns a reset builder (KeepGeometry off).
func (p *Pool) GetBuilder() *build.Builder {
	if p == nil {
		return &build.Builder{}
	}
	p.mu.Lock()
	var b *build.Builder
	if n := len(p.builders); n > 0 {
		b = p.builders[n-1]
		p.builders[n-1] = nil
		p.builders = p.builders[:n-1]
	}
	p.mu.Unlock()
	if b == nil {
		b = &build.Builder{}
	}
	return b
}

// PutBuilder resets a builder and returns it to the pool. The caller
// must be done with everything the builder handed out except Finish
// results, which own their memory.
func (p *Pool) PutBuilder(b *build.Builder) {
	if p == nil || b == nil {
		return
	}
	b.Reset()
	p.mu.Lock()
	p.builders = append(p.builders, b)
	p.mu.Unlock()
}

// GetBoxBuf returns an empty box buffer with whatever capacity the
// pool has lying around (possibly none).
func (p *Pool) GetBoxBuf() []frontend.Box {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.boxBufs); n > 0 {
		b := p.boxBufs[n-1]
		p.boxBufs[n-1] = nil
		p.boxBufs = p.boxBufs[:n-1]
		return b[:0]
	}
	return nil
}

// PutBoxBuf returns a box buffer's capacity to the pool.
func (p *Pool) PutBoxBuf(b []frontend.Box) {
	if p == nil || cap(b) == 0 {
		return
	}
	p.mu.Lock()
	p.boxBufs = append(p.boxBufs, b[:0])
	p.mu.Unlock()
}

// reset rebinds a pooled sweeper to a new source and options, keeping
// the capacity of every list and scratch buffer. Warnings are dropped
// rather than truncated: the previous Result may alias their backing.
func (s *sweeper) reset(src Source, opt Options) {
	s.src = src
	s.opt = opt
	if s.b == nil {
		s.b = &build.Builder{}
	} else {
		s.b.Reset()
	}
	s.b.KeepGeometry = opt.KeepGeometry
	for l := range s.active {
		s.active[l] = s.active[l][:0]
		s.newGeom[l] = s.newGeom[l][:0]
	}
	s.merged = s.merged[:0]
	s.maxBot, s.haveBot = 0, false
	s.prevPoly, s.prevDiff, s.prevMetal = s.prevPoly[:0], s.prevDiff[:0], s.prevMetal[:0]
	s.prevChan = s.prevChan[:0]
	s.rawPoly, s.rawDiff, s.rawMetal = s.rawPoly[:0], s.rawDiff[:0], s.rawMetal[:0]
	s.rawBur, s.rawImpl, s.rawCut = s.rawBur[:0], s.rawImpl[:0], s.rawCut[:0]
	s.chanR, s.diffCondR, s.burConR, s.tmpR = s.chanR[:0], s.diffCondR[:0], s.burConR[:0], s.tmpR[:0]
	s.curPoly, s.curDiff, s.curMetal = s.curPoly[:0], s.curDiff[:0], s.curMetal[:0]
	s.curChan = s.curChan[:0]
	s.labels = append(s.labels[:0], opt.Labels...)
	sortLabelsByY(s.labels)
	s.nextLb = 0
	s.band = bandLimits{}
	s.topFace = face{}
	s.botFace = face{}
	s.counters = Counters{}
	s.timing = Timing{}
	s.warnings = nil
}

// TopsSorted reports whether boxes are already in non-increasing top
// order — the precondition every sweep entry point shares. The check
// is hoisted here so the parallel sweep and the tiled path agree on
// it and neither pays a sort (or its comparator closure) when the
// front end already delivered sweep order.
func TopsSorted(boxes []frontend.Box) bool {
	for i := 1; i < len(boxes); i++ {
		if boxes[i].Rect.YMax > boxes[i-1].Rect.YMax {
			return false
		}
	}
	return true
}

// sortTopsStable stably sorts boxes by non-increasing top edge — the
// same order sort.SliceStable with a YMax comparator produces — using
// an explicit bottom-up merge over caller-provided scratch instead of
// a closure-driven in-place stable sort. The (possibly grown) scratch
// is returned for reuse.
func sortTopsStable(boxes []frontend.Box, scratch []frontend.Box) []frontend.Box {
	n := len(boxes)
	if n < 2 {
		return scratch
	}
	if cap(scratch) < n {
		scratch = make([]frontend.Box, n)
	}
	src, dst := boxes, scratch[:n]
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				// Left wins ties: that is what makes the merge stable.
				if src[i].Rect.YMax >= src[j].Rect.YMax {
					dst[k] = src[i]
					i++
				} else {
					dst[k] = src[j]
					j++
				}
				k++
			}
			copy(dst[k:], src[i:mid])
			copy(dst[k+(mid-i):], src[j:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &boxes[0] {
		copy(boxes, src)
	}
	return scratch[:0]
}
