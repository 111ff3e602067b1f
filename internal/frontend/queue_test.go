package frontend

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ace/internal/cif"
	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/tech"
)

// refStream is the reference for the radix queue: a binary max-heap
// that holds and swaps whole entries, as the front end once did. It
// shares the Stream's design state (symbols, memo tables, scratch,
// labels and stats) and replaces only the queue, so any difference in
// the tops delivered, or in the boxes at one top, comes from the queue.
type refStream struct {
	*Stream
	heap []refEntry
	sink *[]refEntry
}

// refEntry is the original heap item: key and payload in one struct.
type refEntry struct {
	top   int64
	kind  entryKind
	box   Box
	sym   int
	trans geom.Transform
}

// newRefStream builds the reference over the same items as a Stream
// made with the same options.
func newRefStream(t *testing.T, f *cif.File, opts Options) *refStream {
	t.Helper()
	s, err := New(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	s.buckets, s.queued, s.slab, s.free = [65][]queueKey{}, 0, nil, nil
	s.labels, s.stats = nil, Stats{}
	r := &refStream{Stream: s}
	top, _ := f.TopSymbol()
	r.pushItems(top, geom.Identity)
	return r
}

func (r *refStream) Labels() []Label {
	var queue []refEntry
	w := 0
	for _, e := range r.heap {
		if e.kind == entryCall && r.hasLabels(e.sym) {
			queue = append(queue, e)
		} else {
			r.heap[w] = e
			w++
		}
	}
	if w == len(r.heap) {
		return r.labels
	}
	r.heap = r.heap[:w]
	for i := len(r.heap)/2 - 1; i >= 0; i-- {
		r.siftDown(i)
	}
	for len(queue) > 0 {
		e := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		r.stats.CellsExpanded++
		r.sink = &queue
		r.pushItems(r.syms[e.sym].Items, e.trans)
		r.sink = nil
	}
	return r.labels
}

func (r *refStream) NextTop() (int64, bool) {
	for len(r.heap) > 0 && r.heap[0].kind == entryCall {
		e := r.pop()
		r.stats.CellsExpanded++
		r.pushItems(r.syms[e.sym].Items, e.trans)
	}
	if len(r.heap) == 0 {
		return 0, false
	}
	return r.heap[0].top, true
}

func (r *refStream) Next() (Box, bool) {
	if _, ok := r.NextTop(); !ok {
		return Box{}, false
	}
	e := r.pop()
	r.stats.BoxesOut++
	return e.box, true
}

func (r *refStream) pushItems(items []cif.Item, tr geom.Transform) {
	for _, it := range items {
		switch it.Kind {
		case cif.ItemBox:
			r.pushBox(it.Layer, tr.ApplyRect(it.Box))
		case cif.ItemPolygon:
			r.stats.NonManhattan++
			for _, rc := range it.Poly.ApplyManhattanize(&r.geo, tr, r.grid) {
				r.pushBox(it.Layer, rc)
			}
		case cif.ItemWire:
			r.stats.NonManhattan++
			for _, rc := range it.Wire.ApplyBoxes(&r.geo, tr, r.grid) {
				r.pushBox(it.Layer, rc)
			}
		case cif.ItemCall:
			sub, ok := cif.SymbolBBox(it.SymbolID, r.syms, r.bboxes)
			if !ok {
				continue
			}
			t := it.Trans.Then(tr)
			top := t.ApplyRect(sub).YMax
			if r.hasImpure(it.SymbolID) {
				top = ceilToGrid(top, r.grid)
			}
			e := refEntry{top: top, kind: entryCall, sym: it.SymbolID, trans: t}
			if r.sink != nil && r.hasLabels(it.SymbolID) {
				*r.sink = append(*r.sink, e)
			} else {
				r.push(e)
			}
		case cif.ItemLabel:
			r.labels = append(r.labels, Label{Name: it.Name, At: tr.Apply(it.At), Layer: it.Layer, HasLayer: it.HasLayer})
		}
	}
}

func (r *refStream) pushBox(l tech.Layer, rc geom.Rect) {
	if rc.Empty() || l == tech.Glass && !r.keepNG {
		return
	}
	r.push(refEntry{top: rc.YMax, kind: entryBox, box: Box{Layer: l, Rect: rc}})
}

func (r *refStream) push(e refEntry) {
	r.heap = append(r.heap, e)
	i := len(r.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if r.heap[p].top >= r.heap[i].top {
			break
		}
		r.heap[p], r.heap[i] = r.heap[i], r.heap[p]
		i = p
	}
	if len(r.heap) > r.stats.PeakQueue {
		r.stats.PeakQueue = len(r.heap)
	}
}

func (r *refStream) pop() refEntry {
	e := r.heap[0]
	last := len(r.heap) - 1
	r.heap[0] = r.heap[last]
	r.heap = r.heap[:last]
	r.siftDown(0)
	return e
}

func (r *refStream) siftDown(i int) {
	n := len(r.heap)
	for {
		l, rt := 2*i+1, 2*i+2
		m := i
		if l < n && r.heap[l].top > r.heap[m].top {
			m = l
		}
		if rt < n && r.heap[rt].top > r.heap[m].top {
			m = rt
		}
		if m == i {
			return
		}
		r.heap[i], r.heap[m] = r.heap[m], r.heap[i]
		i = m
	}
}

// randomTiedDesign writes a random hierarchical CIF design whose box
// and call tops fall on a coarse grid, so most items share their top
// with others. Symbols call lower-numbered symbols, some under rotation or
// mirroring; some carry labels, some a polygon.
func randomTiedDesign(rng *rand.Rand) string {
	var sb strings.Builder
	layers := []string{"ND", "NP", "NM", "NC"}
	items := func(maxSym int, n int) {
		for i := 0; i < n; i++ {
			switch k := rng.Intn(10); {
			case k < 5 || maxSym == 0:
				fmt.Fprintf(&sb, "L %s; B %d %d %d %d;\n", layers[rng.Intn(len(layers))],
					20*(1+rng.Intn(3)), 20*(1+rng.Intn(2)), 10*rng.Intn(20), 100*rng.Intn(4))
			case k < 8:
				tr := ""
				switch rng.Intn(4) {
				case 1:
					tr = " R 0 1"
				case 2:
					tr = " M X"
				}
				fmt.Fprintf(&sb, "C %d%s T %d %d;\n", 1+rng.Intn(maxSym), tr, 100*rng.Intn(5), 100*rng.Intn(5))
			case k < 9:
				fmt.Fprintf(&sb, "94 n%d %d %d;\n", rng.Intn(1000), 10*rng.Intn(20), 100*rng.Intn(4))
			default:
				y := 100 * rng.Intn(4)
				fmt.Fprintf(&sb, "L NP; P 0 %d 40 %d 15 %d;\n", y, y, y+33)
			}
		}
	}
	nsym := 1 + rng.Intn(6)
	for id := 1; id <= nsym; id++ {
		fmt.Fprintf(&sb, "DS %d;\n", id)
		items(id-1, 1+rng.Intn(6))
		sb.WriteString("DF;\n")
	}
	items(nsym, 2+rng.Intn(12))
	sb.WriteString("E\n")
	return sb.String()
}

// TestQueueMatchesReference runs the radix queue and the reference
// heap over random designs with many tied tops, nested and transformed
// calls and Labels() forcing at random points. Boxes that share a top
// may come out in any order, so it requires what the queue promises:
// the same top before every box, the same multiset of boxes at each
// top, the same labels (as a multiset: labels surface in expansion
// order, which follows the tie order) and the same work counters. A
// queue that delivers a lower top first fails the NextTop comparison.
func TestQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	arena := NewArena()
	for trial := 0; trial < 400; trial++ {
		src := randomTiedDesign(rng)
		f, err := cif.ParseString(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		s, err := New(f, Options{Arena: arena})
		if err != nil {
			continue // nothing but empty symbols
		}
		ref := newRefStream(t, f, Options{})
		labelsAt := rng.Intn(8) // boxes read before Labels()
		var got, want []Box     // boxes read at the current top
		for n := 0; ; n++ {
			if n == labelsAt {
				if got, want := sortedLabels(s.Labels()), sortedLabels(ref.Labels()); !slices.Equal(got, want) {
					t.Fatalf("trial %d: labels %v, reference %v\n%s", trial, got, want, src)
				}
			}
			top, ok := s.NextTop()
			wtop, wok := ref.NextTop()
			if top != wtop || ok != wok {
				t.Fatalf("trial %d box %d: NextTop %d/%v, reference %d/%v\n%s", trial, n, top, ok, wtop, wok, src)
			}
			if len(got) > 0 && (!ok || top != got[0].Rect.YMax) {
				sortBoxes(got)
				sortBoxes(want)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d: boxes at top %d %v, reference %v\n%s", trial, got[0].Rect.YMax, got, want, src)
				}
				got, want = got[:0], want[:0]
			}
			if !ok {
				break
			}
			b, _ := s.Next()
			wb, _ := ref.Next()
			got, want = append(got, b), append(want, wb)
		}
		st, wst := s.Stats(), ref.stats
		st.PeakQueue, wst.PeakQueue = 0, 0 // the peak depends on the tie order
		if st != wst {
			t.Fatalf("trial %d: stats %+v, reference %+v\n%s", trial, st, wst, src)
		}
		arena.PutStream(s)
	}
}

func sortBoxes(bs []Box) {
	slices.SortFunc(bs, func(a, b Box) int {
		return cmp.Or(cmp.Compare(a.Layer, b.Layer),
			cmp.Compare(a.Rect.XMin, b.Rect.XMin), cmp.Compare(a.Rect.YMin, b.Rect.YMin),
			cmp.Compare(a.Rect.XMax, b.Rect.XMax), cmp.Compare(a.Rect.YMax, b.Rect.YMax))
	})
}

func sortedLabels(ls []Label) []Label {
	ls = slices.Clone(ls)
	slices.SortFunc(ls, func(a, b Label) int {
		return cmp.Or(strings.Compare(a.Name, b.Name),
			cmp.Compare(a.At.X, b.At.X), cmp.Compare(a.At.Y, b.At.Y),
			cmp.Compare(a.Layer, b.Layer))
	})
	return ls
}

// TestPushAboveFloorIsTypedError breaks the invariant the queue rests
// on — children never outrank their call — by growing a symbol after
// its call was queued. The child that lands above the delivered top
// must surface as an *OrderError, not as a box out of order.
func TestPushAboveFloorIsTypedError(t *testing.T) {
	f, err := cif.ParseString(`
DS 1; L ND; B 10 100 5 50; DF;
L ND; B 10 10 5 195;
C 1;
E
`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := s.Next(); !ok || b.Rect.YMax != 200 {
		t.Fatalf("first box %v/%v, want top 200", b, ok)
	}
	// The call is queued at top 100; its symbol now reaches 150.
	f.Symbols[1].Items[0].Box = geom.R(0, 0, 10, 150)
	var boxes []Box
	err = guard.Run(guard.StageFrontend, func() error {
		boxes = s.Drain()
		return nil
	})
	var oe *OrderError
	if !errors.As(err, &oe) {
		t.Fatalf("drain: err %v, boxes %v; want *OrderError", err, boxes)
	}
	if oe.Top != 150 || oe.Floor != 100 {
		t.Fatalf("OrderError %+v, want top 150 above floor 100", oe)
	}
}

// FuzzStreamOrder checks the stream against a plain recursive flatten
// of random hierarchies: tops never rise, and the boxes delivered are
// exactly the flatten's multiset, whenever Labels() is forced.
func FuzzStreamOrder(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, labelsAt uint8) {
		src := randomTiedDesign(rand.New(rand.NewSource(seed)))
		cf, err := cif.ParseString(src)
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		s, err := New(cf, Options{})
		if err != nil {
			return // nothing but empty symbols
		}
		var got []Box
		for n := 0; ; n++ {
			if n == int(labelsAt%8) {
				s.Labels()
			}
			b, ok := s.Next()
			if !ok {
				break
			}
			if n > 0 && b.Rect.YMax > got[n-1].Rect.YMax {
				t.Fatalf("box %d: top %d after %d\n%s", n, b.Rect.YMax, got[n-1].Rect.YMax, src)
			}
			got = append(got, b)
		}
		top, _ := cf.TopSymbol()
		want := flattenRef(nil, top, cf.Symbols, geom.Identity)
		sortBoxes(got)
		sortBoxes(want)
		if !slices.Equal(got, want) {
			t.Fatalf("boxes %v, full flatten %v\n%s", got, want, src)
		}
	})
}

// flattenRef instantiates every item of the hierarchy recursively,
// with the stream's default grid and glass dropped.
func flattenRef(out []Box, items []cif.Item, syms map[int]*cif.Symbol, tr geom.Transform) []Box {
	emit := func(l tech.Layer, r geom.Rect) {
		if !r.Empty() && l != tech.Glass {
			out = append(out, Box{Layer: l, Rect: r})
		}
	}
	for _, it := range items {
		switch it.Kind {
		case cif.ItemBox:
			emit(it.Layer, tr.ApplyRect(it.Box))
		case cif.ItemPolygon:
			for _, r := range it.Poly.ApplyManhattanize(nil, tr, 10) {
				emit(it.Layer, r)
			}
		case cif.ItemWire:
			for _, r := range it.Wire.ApplyBoxes(nil, tr, 10) {
				emit(it.Layer, r)
			}
		case cif.ItemCall:
			out = flattenRef(out, syms[it.SymbolID].Items, syms, it.Trans.Then(tr))
		}
	}
	return out
}
