// Package frontend implements ACE's front end: it parses a CIF design
// and delivers fully-instantiated, manhattanised boxes to the back end
// sorted from the top of the chip to the bottom — without ever
// instantiating the whole chip at once.
//
// The sort uses a max-heap keyed by box top. Symbol calls sit in the
// heap as single entries keyed by the top of their transformed
// bounding box; a call is expanded one level only when the sweep
// actually reaches it (ACE §4: "recursively expands only those cells
// that intersect the current scanline"). A cell entirely below the
// scanline therefore costs one heap entry, not its full contents.
package frontend

import (
	"fmt"

	"ace/internal/cif"
	"ace/internal/diag"
	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/tech"
)

// Box is one axis-aligned piece of mask geometry.
type Box struct {
	Layer tech.Layer
	Rect  geom.Rect
}

// Label is an instantiated net name annotation.
type Label struct {
	Name     string
	At       geom.Point
	Layer    tech.Layer
	HasLayer bool
}

// Options configures instantiation.
type Options struct {
	// Grid is the manhattanisation grid for non-manhattan geometry in
	// centimicrons. Zero selects the default of 10 (λ/20 at the
	// standard NMOS λ of 200).
	Grid int64

	// KeepGlass instructs the stream to also deliver overglass
	// geometry; extraction ignores it, so by default it is dropped.
	KeepGlass bool

	// Limits are the front end's resource budgets: MaxDepth bounds the
	// call hierarchy (cycles are always rejected), MaxExpandedBoxes
	// caps the pre-flattener's materialised arena boxes and
	// MaxMemBytes its retained bytes. Zero fields are unlimited except
	// depth, which defaults to guard.DefaultMaxDepth.
	Limits guard.Limits

	// Lenient selects fail-soft hierarchy validation: recursive
	// definitions and over-deep hierarchies are reported into Diags as
	// Error diagnostics and the offending calls dropped, instead of
	// failing the build. An empty design yields an empty stream plus a
	// diagnostic rather than an error. Resource budgets (Limits) still
	// abort: they protect the process, not the input.
	Lenient bool

	// Diags receives the front end's diagnostics in lenient mode. Nil
	// is allowed; findings are then silently dropped.
	Diags *diag.Set

	// Arena, when non-nil, supplies pooled Streams and box buffers so
	// repeated instantiation stops allocating. Output is identical with
	// and without it.
	Arena *Arena
}

// Stats reports front-end work counters.
type Stats struct {
	BoxesOut      int // boxes delivered to the back end
	CellsExpanded int // symbol instances expanded
	PeakHeap      int // maximum heap size reached
	NonManhattan  int // polygons/wires/rotated boxes approximated
}

// Stream delivers boxes in descending top-edge order.
type Stream struct {
	syms   map[int]*cif.Symbol
	bboxes map[int]geom.Rect
	grid   int64
	keepNG bool

	// heap orders 16-byte keys over the entries in slab, so sifting
	// moves keys rather than whole entries; free lists the slab's
	// vacated slots for reuse.
	heap   []heapKey
	slab   []entry
	free   []int32
	labels []Label
	stats  Stats
	bbox   geom.Rect
	hasBB  bool

	// labelMemo caches per-symbol "subtree contains labels"; callSink,
	// when set, diverts label-bearing calls from the heap during
	// Labels()'s forced expansion. impureMemo caches per-symbol
	// "subtree contains polygons or wires", which decides whether a
	// call's heap key needs grid rounding (see pushItems).
	labelMemo  map[int]bool
	impureMemo map[int]bool
	callSink   *[]entry

	// banned holds symbols whose calls lenient hierarchy validation
	// dropped (cycles, excess depth); nil in strict mode.
	banned map[int]bool

	// geo is the polygon/wire decomposition scratch; a Stream is
	// single-goroutine, and pooled Streams keep its grown capacity.
	geo geom.BoxScratch
}

type entryKind int8

const (
	entryBox entryKind = iota
	entryCall
)

// entry is a heap item's payload: a box, or a symbol call's symbol and
// transform. Only the fields of its kind are meaningful.
type entry struct {
	box   Box
	sym   int
	trans geom.Transform
}

// heapKey is an item's place in the heap: the top it is ordered by, the
// slab slot holding its entry, and its kind, which NextTop reads
// without a slab visit.
type heapKey struct {
	top  int64
	slot int32
	kind entryKind
}

// New builds a stream over the file's top cell. It returns an error if
// the design has no geometry at all.
func New(f *cif.File, opts Options) (*Stream, error) {
	top, _ := f.TopSymbol()
	return NewItems(top, f.Symbols, opts)
}

// NewItems builds a stream over an explicit item list (used by HEXT to
// instantiate window contents). A panic while seeding the heap surfaces
// as a *guard.PanicError attributed to the front end.
func NewItems(items []cif.Item, syms map[int]*cif.Symbol, opts Options) (s *Stream, err error) {
	defer guard.Recover(guard.StageFrontend, &err)
	if err := guard.Inject(guard.StageFrontend); err != nil {
		return nil, err
	}
	var banned map[int]bool
	if opts.Lenient {
		banned = checkHierarchyLenient(items, syms, opts.Limits.Depth(), opts.Diags)
	} else if err := checkHierarchy(items, syms, opts.Limits.Depth()); err != nil {
		return nil, err
	}
	grid := opts.Grid
	if grid <= 0 {
		grid = 10
	}
	s = opts.Arena.getStream()
	s.syms = syms
	s.grid = grid
	s.keepNG = opts.KeepGlass
	s.banned = banned
	s.pushItems(items, geom.Identity)
	if len(s.heap) == 0 && len(s.labels) == 0 {
		if !opts.Lenient {
			return nil, fmt.Errorf("frontend: %w", guard.ErrNoGeometry)
		}
		addDiag(opts.Diags, diag.New(diag.Warning, guard.StageFrontend,
			"no-geometry", "design contains no geometry"))
	}
	bb, ok := cif.BBoxItems(items, syms, s.bboxes)
	if ok {
		s.bbox = bb
		s.hasBB = true
	}
	return s, nil
}

// BBox returns the design's bounding box.
func (s *Stream) BBox() geom.Rect { return s.bbox }

// Labels returns every label in the design. Only calls whose symbol
// subtree actually contains labels are expanded, so the front end's
// laziness is preserved for ordinary geometry (labels typically live
// at the top level).
func (s *Stream) Labels() []Label {
	// Pull label-bearing calls out of the heap.
	var queue []entry
	w := 0
	for _, k := range s.heap {
		if k.kind == entryCall && s.hasLabels(s.slab[k.slot].sym) {
			queue = append(queue, s.slab[k.slot])
			s.free = append(s.free, k.slot)
		} else {
			s.heap[w] = k
			w++
		}
	}
	if w == len(s.heap) {
		return s.labels // nothing to expand
	}
	s.heap = s.heap[:w]
	s.fixHeap()

	// Expand the queue iteratively; geometry goes back into the heap,
	// label-bearing sub-calls stay in the queue.
	for len(queue) > 0 {
		e := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		s.stats.CellsExpanded++
		s.callSink = &queue
		s.pushItems(s.syms[e.sym].Items, e.trans)
		s.callSink = nil
	}
	return s.labels
}

// hasLabels reports whether a symbol's subtree contains any label.
func (s *Stream) hasLabels(id int) bool {
	if v, ok := s.labelMemo[id]; ok {
		return v
	}
	if s.labelMemo == nil {
		s.labelMemo = map[int]bool{}
	}
	s.labelMemo[id] = false // break cycles defensively
	found := false
	for _, it := range s.syms[id].Items {
		switch it.Kind {
		case cif.ItemLabel:
			found = true
		case cif.ItemCall:
			if s.hasLabels(it.SymbolID) {
				found = true
			}
		}
		if found {
			break
		}
	}
	s.labelMemo[id] = found
	return found
}

// hasImpure reports whether a symbol's subtree contains any polygon or
// wire — geometry whose manhattanisation may overshoot the symbol
// bounding box by up to one grid band.
func (s *Stream) hasImpure(id int) bool {
	if v, ok := s.impureMemo[id]; ok {
		return v
	}
	if s.impureMemo == nil {
		s.impureMemo = map[int]bool{}
	}
	s.impureMemo[id] = false // break cycles defensively
	found := false
	for _, it := range s.syms[id].Items {
		switch it.Kind {
		case cif.ItemPolygon, cif.ItemWire:
			found = true
		case cif.ItemCall:
			if s.hasImpure(it.SymbolID) {
				found = true
			}
		}
		if found {
			break
		}
	}
	s.impureMemo[id] = found
	return found
}

// ceilToGrid rounds v up to the next multiple of grid.
func ceilToGrid(v, grid int64) int64 {
	if r := ((v % grid) + grid) % grid; r != 0 {
		return v + grid - r
	}
	return v
}

// Stats returns work counters.
func (s *Stream) Stats() Stats { return s.stats }

// NextTop reports the top edge of the next box without consuming it.
func (s *Stream) NextTop() (int64, bool) {
	for len(s.heap) > 0 && s.heap[0].kind == entryCall {
		e := s.pop()
		s.expand(e.sym, e.trans)
	}
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].top, true
}

// Next returns the next box in descending top order.
func (s *Stream) Next() (Box, bool) {
	if _, ok := s.NextTop(); !ok {
		return Box{}, false
	}
	s.stats.BoxesOut++
	return s.pop().box, true
}

// Drain returns all remaining boxes (mostly for tests and the
// baselines, which want the flat list).
func (s *Stream) Drain() []Box {
	var out []Box
	for {
		b, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, b)
	}
}

func (s *Stream) expand(sym int, tr geom.Transform) {
	s.stats.CellsExpanded++
	s.pushItems(s.syms[sym].Items, tr)
}

func (s *Stream) pushItems(items []cif.Item, tr geom.Transform) {
	for _, it := range items {
		switch it.Kind {
		case cif.ItemBox:
			s.pushBox(it.Layer, tr.ApplyRect(it.Box))
		case cif.ItemPolygon:
			s.stats.NonManhattan++
			// pushBox copies each rect out before the scratch's next use.
			for _, r := range it.Poly.ApplyManhattanize(&s.geo, tr, s.grid) {
				s.pushBox(it.Layer, r)
			}
		case cif.ItemWire:
			s.stats.NonManhattan++
			for _, r := range it.Wire.ApplyBoxes(&s.geo, tr, s.grid) {
				s.pushBox(it.Layer, r)
			}
		case cif.ItemCall:
			if s.banned[it.SymbolID] {
				continue // dropped by lenient hierarchy validation
			}
			sub, ok := cif.SymbolBBox(it.SymbolID, s.syms, s.bboxes)
			if !ok {
				continue // empty symbol
			}
			t := it.Trans.Then(tr)
			top := t.ApplyRect(sub).YMax
			if s.hasImpure(it.SymbolID) {
				// Manhattanisation rounds band tops up to the grid, so
				// a polygon or wire in the subtree can produce boxes
				// above the symbol's bounding box. Rounding the key up
				// keeps the heap's invariant — children never outrank
				// their call — so delivery stays in descending-top
				// order (the sweep requires it).
				top = ceilToGrid(top, s.grid)
			}
			if s.callSink != nil && s.hasLabels(it.SymbolID) {
				*s.callSink = append(*s.callSink, entry{sym: it.SymbolID, trans: t})
			} else {
				e := s.push(top, entryCall)
				e.sym, e.trans = it.SymbolID, t
			}
		case cif.ItemLabel:
			s.labels = append(s.labels, Label{
				Name:     it.Name,
				At:       tr.Apply(it.At),
				Layer:    it.Layer,
				HasLayer: it.HasLayer,
			})
		}
	}
}

func (s *Stream) pushBox(l tech.Layer, r geom.Rect) {
	if r.Empty() {
		return
	}
	if l == tech.Glass && !s.keepNG {
		return
	}
	s.push(r.YMax, entryBox).box = Box{Layer: l, Rect: r}
}

// ---- max-heap keyed by top ----
//
// The heap orders 16-byte keys and leaves the entries in place in the
// slab. Sifting moves a hole rather than swapping, but makes exactly
// the comparisons of a swapping binary heap, so items, ties included,
// come out in the same order.

// push adds an item with the given top and kind and returns its slab
// entry for the caller to fill. The pointer is valid until the next
// push.
func (s *Stream) push(top int64, kind entryKind) *entry {
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.slab))
		s.slab = append(s.slab, entry{})
	}
	k := heapKey{top: top, slot: slot, kind: kind}
	i := len(s.heap)
	s.heap = append(s.heap, k)
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p].top >= top {
			break
		}
		s.heap[i] = s.heap[p]
		i = p
	}
	s.heap[i] = k
	if len(s.heap) > s.stats.PeakHeap {
		s.stats.PeakHeap = len(s.heap)
	}
	return &s.slab[slot]
}

// pop removes the top item, frees its slab slot and returns its entry.
// The pointer is valid until the next push.
func (s *Stream) pop() *entry {
	slot := s.heap[0].slot
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	s.siftDown(0)
	s.free = append(s.free, slot)
	return &s.slab[slot]
}

func (s *Stream) siftDown(i int) {
	n := len(s.heap)
	if i >= n {
		return
	}
	k := s.heap[i]
	for {
		l, r := 2*i+1, 2*i+2
		m, top := i, k.top
		if l < n && s.heap[l].top > top {
			m, top = l, s.heap[l].top
		}
		if r < n && s.heap[r].top > top {
			m = r
		}
		if m == i {
			break
		}
		s.heap[i] = s.heap[m]
		i = m
	}
	s.heap[i] = k
}

func (s *Stream) fixHeap() {
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}
