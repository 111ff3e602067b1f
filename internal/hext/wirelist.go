package hext

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteHierarchical emits the extraction result as a hierarchical
// wirelist in the style of Figure 2-2: one DefPart per unique window,
// Part statements instantiating child windows, and Net statements
// establishing the signal equivalences across seams. Because the memo
// table shares identical windows, a window repeated a thousand times
// appears once as a DefPart and a thousand times as one-line Parts —
// the whole point of hierarchical extraction.
//
// Partial transistors use the (TPart …) extension: the original V085
// format document is lost and Figure 2-2 shows no window-crossing
// transistors, so the syntax for them is ours (DESIGN.md §6).
//
// Output goes through a 64 KiB buffer, so an unbuffered w (a file, a
// pipe) sees a few large writes rather than one per token; the first
// write or flush error is returned.
func (r *Result) WriteHierarchical(w io.Writer) error {
	if r.top == nil && len(r.hier) == 0 && r.hierStore != nil {
		// Slim whole-result hit: the tree lives in the root window's
		// own "w:" entry, read only now that hierarchical output is
		// actually wanted.
		payload, ok := r.hierStore.Get(winTreeKey(r.hierKey))
		if !ok {
			return fmt.Errorf("hext: window tree missing from cache")
		}
		r.hier = payload
	}
	if r.top == nil && len(r.hier) > 0 {
		// Whole-result disk hit: the window tree was carried as bytes
		// and is only decoded here, on first hierarchical emission.
		// Fresh post-order ids reproduce a cold fresh-session numbering.
		ids := 0
		top, err := decodeWinTree(r.hier, nil, nil, func() int { ids++; return ids })
		if err != nil {
			return fmt.Errorf("hext: stored window tree: %w", err)
		}
		r.top, r.hier = top, nil
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	ew := &hw{w: bw, done: map[int]bool{}}
	ew.printf("(DefPart nEnh (Exports G S D))\n")
	ew.printf("(DefPart nDep (Exports G S D))\n")
	ew.printf("(DefPart nCap (Exports G S D))\n")
	if r.top != nil { // nil on a lenient empty design: prelude only
		ew.emit(r.top)
		ew.printf("(Part Window%d (Name Top))\n", r.top.id)
	}
	if ew.err != nil {
		return ew.err
	}
	return bw.Flush()
}

// HierarchicalString renders the hierarchical wirelist to a string.
func (r *Result) HierarchicalString() string {
	var sb strings.Builder
	_ = r.WriteHierarchical(&sb)
	return sb.String()
}

type hw struct {
	w    io.Writer
	err  error
	done map[int]bool
}

func (e *hw) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func (e *hw) emit(r *winResult) {
	if e.done[r.id] {
		return
	}
	e.done[r.id] = true
	if r.comp != nil {
		e.emit(r.comp.kids[0])
		e.emit(r.comp.kids[1])
	}

	e.printf("(DefPart Window%d (Size %d %d)\n", r.id, r.w, r.h)

	// Exports: the nets and partial transistors visible on the
	// window's boundary.
	exportedNets := map[int32]bool{}
	exportedParts := map[int32]bool{}
	for _, eg := range r.edges {
		if eg.layer == eChan {
			exportedParts[eg.ref] = true
		} else {
			exportedNets[eg.ref] = true
		}
	}
	e.printf(" (Exports")
	for i := int32(0); int(i) < r.netCount; i++ {
		if exportedNets[i] {
			e.printf(" N%d", i)
		}
	}
	for i := int32(0); int(i) < r.partCount; i++ {
		if exportedParts[i] {
			e.printf(" T%d", i)
		}
	}
	e.printf(" )\n")

	if r.leaf != nil {
		e.emitLeaf(r)
	} else {
		e.emitComp(r)
	}

	// Local: internal nets not exported.
	e.printf(" (Local")
	for i := int32(0); int(i) < r.netCount; i++ {
		if !exportedNets[i] {
			e.printf(" N%d", i)
		}
	}
	e.printf(" ))\n")
}

func (e *hw) emitLeaf(r *winResult) {
	nl := r.leaf.nl
	// The cached netlist is anchored; adding the anchor back prints
	// locations in the window frame, as the format has always done.
	anchor := r.leaf.anchor
	partSlot := map[int]int{}
	for slot, di := range r.leaf.partDevs {
		partSlot[di] = slot
	}
	for i := range nl.Devices {
		d := &nl.Devices[i]
		loc := d.Location.Add(anchor)
		e.printf(" (Part %s (Name D%d) (Loc %d %d) (T G N%d) (T S N%d) (T D N%d)",
			d.Type, i, loc.X, loc.Y, d.Gate, d.Source, d.Drain)
		e.printf(" (Channel (Length %d) (Width %d))", d.Length, d.Width)
		if slot, ok := partSlot[i]; ok {
			// A partial transistor carries its accumulator facts so a
			// reader can complete it exactly after composition: channel
			// area, implanted area, and the contact-edge length against
			// each terminal net seen so far.
			e.printf(" (TPart T%d (Area %d) (Impl %d) (Edges", slot, d.Area, d.ImplArea)
			for _, term := range d.Terminals {
				e.printf(" (N%d %d)", term.Net, term.Edge)
			}
			e.printf(" ))")
		}
		e.printf(")\n")
	}
	for i := range nl.Nets {
		if len(nl.Nets[i].Names) == 0 {
			continue
		}
		e.printf(" (Net N%d", i)
		for _, nm := range nl.Nets[i].Names {
			e.printf(" %s", nm)
		}
		e.printf(")\n")
	}
}

func (e *hw) emitComp(r *winResult) {
	c := r.comp
	for k := 0; k < 2; k++ {
		e.printf(" (Part Window%d (Name P%d) (LocOffset %d %d))\n",
			c.kids[k].id, k+1, c.at[k].X, c.at[k].Y)
	}
	for _, eq := range c.netEquivs {
		e.printf(" (Net P%d/N%d P%d/N%d)\n",
			eq[0].child+1, eq[0].idx, eq[1].child+1, eq[1].idx)
	}
	for _, eq := range c.partEquivs {
		e.printf(" (TPartEquiv P%d/T%d P%d/T%d)\n",
			eq[0].child+1, eq[0].idx, eq[1].child+1, eq[1].idx)
	}
	for _, pt := range c.partTerms {
		e.printf(" (TPartTerm P%d/T%d P%d/N%d %d)\n",
			pt.part.child+1, pt.part.idx, pt.net.child+1, pt.net.idx, pt.edge)
	}
	// Export bindings: parent net k stands for a child net.
	for k, rf := range c.parentNets {
		e.printf(" (Net N%d P%d/N%d)\n", k, rf.child+1, rf.idx)
	}
	for k, rf := range c.parentParts {
		e.printf(" (TPart T%d P%d/T%d)\n", k, rf.child+1, rf.idx)
	}
}
