// Package frontend implements ACE's front end: it parses a CIF design
// and delivers fully-instantiated, manhattanised boxes to the back end
// sorted from the top of the chip to the bottom — without ever
// instantiating the whole chip at once.
//
// The sort uses a monotone radix queue keyed by box top. Symbol calls
// sit in the queue as single entries keyed by the top of their
// transformed bounding box; a call is expanded one level only when the
// sweep actually reaches it (ACE §4: "recursively expands only those
// cells that intersect the current scanline"). A cell entirely below
// the scanline therefore costs one queue entry, not its full contents.
// Boxes that share a top come out in an unspecified order.
package frontend

import (
	"fmt"
	"math/bits"

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
	PeakQueue     int // maximum number of queued items
	NonManhattan  int // polygons/wires/rotated boxes approximated
}

// Stream delivers boxes in descending top-edge order.
type Stream struct {
	syms   map[int]*cif.Symbol
	bboxes map[int]geom.Rect
	grid   int64
	keepNG bool

	// buckets and floor are the radix queue (see push); its 16-byte
	// keys point at entries in slab, and free lists the slab's vacated
	// slots for reuse. queued counts the keys in all buckets.
	buckets [65][]queueKey
	floor   uint64
	queued  int
	slab    []entry
	free    []int32
	labels  []Label
	stats   Stats
	bbox    geom.Rect
	hasBB   bool

	// labelMemo caches per-symbol "subtree contains labels"; callSink,
	// when set, diverts label-bearing calls from the queue during
	// Labels()'s forced expansion. impureMemo caches per-symbol
	// "subtree contains polygons or wires", which decides whether a
	// call's queue key needs grid rounding (see pushItems).
	labelMemo  map[int]bool
	impureMemo map[int]bool
	callSink   *[]entry

	// banned holds symbols whose calls lenient hierarchy validation
	// dropped (cycles, excess depth); nil in strict mode.
	banned map[int]bool

	// limits bounds each polygon/wire decomposition (see checkBands).
	limits guard.Limits

	// geo is the polygon/wire decomposition scratch; a Stream is
	// single-goroutine, and pooled Streams keep its grown capacity.
	geo geom.BoxScratch
}

type entryKind int8

const (
	entryBox entryKind = iota
	entryCall
)

// entry is a queue item's payload: a box, or a symbol call's symbol and
// transform. Only the fields of its kind are meaningful.
type entry struct {
	box   Box
	sym   int
	trans geom.Transform
}

// queueKey is an item's place in the queue: the top it is ordered by,
// the slab slot holding its entry, and its kind, which NextTop reads
// without a slab visit.
type queueKey struct {
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
// instantiate window contents). A panic while seeding the queue
// surfaces as a *guard.PanicError attributed to the front end.
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
	s.limits = opts.Limits
	s.pushItems(items, geom.Identity)
	if s.queued == 0 && len(s.labels) == 0 {
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
	// Pull label-bearing calls out of the queue.
	var queue []entry
	for i, b := range s.buckets {
		w := 0
		for _, k := range b {
			if k.kind == entryCall && s.hasLabels(s.slab[k.slot].sym) {
				queue = append(queue, s.slab[k.slot])
				s.free = append(s.free, k.slot)
			} else {
				b[w] = k
				w++
			}
		}
		s.queued -= len(b) - w
		s.buckets[i] = b[:w]
	}
	if len(queue) == 0 {
		return s.labels // nothing to expand
	}

	// Expand the queue iteratively; geometry goes back into the radix
	// queue, label-bearing sub-calls stay in the expansion queue.
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
	for {
		b := s.buckets[0]
		if len(b) == 0 {
			if !s.refill() {
				return 0, false
			}
			continue
		}
		k := b[len(b)-1]
		if k.kind == entryBox {
			return k.top, true
		}
		s.buckets[0] = b[:len(b)-1]
		s.queued--
		s.free = append(s.free, k.slot)
		e := &s.slab[k.slot]
		s.expand(e.sym, e.trans)
	}
}

// Next returns the next box in descending top order.
func (s *Stream) Next() (Box, bool) {
	if _, ok := s.NextTop(); !ok {
		return Box{}, false
	}
	b := s.buckets[0]
	k := b[len(b)-1]
	s.buckets[0] = b[:len(b)-1]
	s.queued--
	s.free = append(s.free, k.slot)
	s.stats.BoxesOut++
	return s.slab[k.slot].box, true
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
			s.checkBands(it.Poly.ApplyBands(tr, s.grid))
			// pushBox copies each rect out before the scratch's next use.
			for _, r := range it.Poly.ApplyManhattanize(&s.geo, tr, s.grid) {
				s.pushBox(it.Layer, r)
			}
		case cif.ItemWire:
			s.stats.NonManhattan++
			s.checkBands(it.Wire.ApplyBands(tr, s.grid))
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
				// keeps the queue's invariant — children never outrank
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

// checkBands aborts with a *guard.LimitError when one polygon or wire
// would decompose into more grid bands than the box or memory budget
// allows, before the decomposition allocates them.
func (s *Stream) checkBands(n int64) {
	if err := s.limits.CheckBands(guard.StageFrontend, n); err != nil {
		guard.Abort(err)
	}
}

// ---- monotone radix queue keyed by top ----
//
// Keys are ordered by d = rev(top), which maps a higher top to a
// smaller unsigned value. floor is the d of the last refill — the
// current top — and a key lives in bucket bits.Len64(d ^ floor), so
// bucket 0 holds exactly the keys at the current top and every other
// bucket holds keys strictly below it. The queue is monotone: no key
// may sort before the floor, which the front end guarantees because
// children never outrank their call (see pushItems). Push is O(1); a
// refill moves the first non-empty bucket's keys into lower buckets,
// and a key moves down at most 64 times in its life.

// revMask turns a top into its order-reversing queue value and back.
const revMask = 1<<63 - 1

// OrderError reports a push above the current floor: an item whose top
// exceeds a top already delivered, which would break descending-top
// delivery. It signals a broken front-end invariant, never bad input.
type OrderError struct {
	Top   int64 // the pushed item's top
	Floor int64 // the top most recently reached
}

func (e *OrderError) Error() string {
	return fmt.Sprintf("%s: internal error: item top %d above delivered top %d",
		guard.StageFrontend, e.Top, e.Floor)
}

// push adds an item with the given top and kind and returns its slab
// entry for the caller to fill. The pointer is valid until the next
// push.
func (s *Stream) push(top int64, kind entryKind) *entry {
	d := uint64(top) ^ revMask
	if d < s.floor {
		guard.Abort(&OrderError{Top: top, Floor: int64(s.floor ^ revMask)})
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.slab))
		s.slab = append(s.slab, entry{})
	}
	b := bits.Len64(d ^ s.floor)
	s.buckets[b] = append(s.buckets[b], queueKey{top: top, slot: slot, kind: kind})
	s.queued++
	if s.queued > s.stats.PeakQueue {
		s.stats.PeakQueue = s.queued
	}
	return &s.slab[slot]
}

// refill advances the floor to the highest queued top and moves the
// first non-empty bucket's keys down, so bucket 0 holds that top's
// keys. It reports false when the queue is empty.
func (s *Stream) refill() bool {
	i := 1
	for i < len(s.buckets) && len(s.buckets[i]) == 0 {
		i++
	}
	if i == len(s.buckets) {
		return false
	}
	b := s.buckets[i]
	floor := uint64(b[0].top) ^ revMask
	for _, k := range b[1:] {
		floor = min(floor, uint64(k.top)^revMask)
	}
	s.floor = floor
	for _, k := range b {
		j := bits.Len64(uint64(k.top) ^ revMask ^ floor)
		s.buckets[j] = append(s.buckets[j], k)
	}
	s.buckets[i] = b[:0]
	return true
}
