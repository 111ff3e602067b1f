package frontend

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ace/internal/cif"
	"ace/internal/geom"
	"ace/internal/tech"
)

// refStream is the reference for the keyed heap: the original max-heap
// that holds and swaps whole entries. It shares the Stream's design
// state (symbols, memo tables, scratch, labels and stats) and replaces
// only the heap, so any difference in delivery order, ties included,
// comes from the heap itself.
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
	s.heap, s.slab, s.free, s.labels, s.stats = nil, nil, nil, nil, Stats{}
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
	if len(r.heap) > r.stats.PeakHeap {
		r.stats.PeakHeap = len(r.heap)
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
// and call tops fall on a coarse grid, so most heap comparisons are
// ties. Symbols call lower-numbered symbols, some under rotation or
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

// TestKeyedHeapMatchesReference runs the keyed heap and the original
// full-entry heap over random designs with many tied tops, nested and
// transformed calls and Labels() forcing at random points, and
// requires the same box sequence, labels and Stats, PeakHeap included.
func TestKeyedHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	arena := NewArena()
	for trial := 0; trial < 400; trial++ {
		src := randomTiedDesign(rng)
		f, err := cif.ParseString(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		opts := Options{Arena: arena}
		s, err := New(f, opts)
		if err != nil {
			continue // nothing but empty symbols
		}
		ref := newRefStream(t, f, Options{})
		labelsAt := rng.Intn(8) // boxes read before Labels()
		for n := 0; ; n++ {
			if n == labelsAt {
				if got, want := s.Labels(), ref.Labels(); !slices.Equal(got, want) {
					t.Fatalf("trial %d: labels %v, reference %v\n%s", trial, got, want, src)
				}
			}
			top, ok := s.NextTop()
			wtop, wok := ref.NextTop()
			if top != wtop || ok != wok {
				t.Fatalf("trial %d box %d: NextTop %d/%v, reference %d/%v\n%s", trial, n, top, ok, wtop, wok, src)
			}
			b, ok := s.Next()
			wb, wok := ref.Next()
			if b != wb || ok != wok {
				t.Fatalf("trial %d box %d: %v/%v, reference %v/%v\n%s", trial, n, b, ok, wb, wok, src)
			}
			if !ok {
				break
			}
		}
		if s.Stats() != ref.stats {
			t.Fatalf("trial %d: stats %+v, reference %+v\n%s", trial, s.Stats(), ref.stats, src)
		}
		arena.PutStream(s)
	}
}
