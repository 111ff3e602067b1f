// Package hext implements HEXT, the hierarchical circuit extractor
// built on top of ACE (the second paper in the CMU report).
//
// The front end transforms the CIF hierarchy into non-overlapping
// rectangular windows; identical windows are extracted once (a memo
// table keyed by canonical window content). Geometry-only windows go
// to the modified flat extractor, which also computes an interface:
// the rectangle edges touching the window boundary, per conducting
// layer, plus partial transistors whose channels touch the boundary.
// Adjacent windows are merged by Compose, which establishes net
// equivalences along the shared seam, merges partial transistors, and
// builds the new window's interface.
//
// Deviation from the paper (recorded in DESIGN.md §6): windows are
// fractured with guillotine cuts that avoid instance bounding boxes,
// so every window — including composed ones — is a rectangle and every
// compose joins two rectangles along a full shared edge. The paper's
// L-shaped "complex windows" never arise; the measured phenomena
// (window memoisation, compose-dominated run time, O(√N) ideal
// arrays) are unchanged.
package hext

import (
	"encoding/binary"
	"sort"

	"ace/internal/cif"
	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/tech"
)

// item is one window content element in window-relative coordinates.
type witem struct {
	kind  cif.ItemKind // ItemBox, ItemCall or ItemLabel
	layer tech.Layer
	box   geom.Rect // ItemBox

	symID int // ItemCall: original symbol id
	trans geom.Transform

	name string     // ItemLabel
	at   geom.Point // ItemLabel
	lbL  bool       // label has layer
}

// window is a rectangular region with contents relative to its origin.
type window struct {
	w, h  int64
	items []witem
}

// instBBox returns the bounding box of a call item (window-relative).
func (e *env) instBBox(it witem) geom.Rect {
	bb, _ := cif.SymbolBBox(it.symID, e.syms, e.bboxCache)
	return it.trans.ApplyRect(bb)
}

// newTopWindow builds the chip-level window from the design's top
// items. Top-level labels are diverted to the global overlay resolved
// during flattening — keeping them out of window contents preserves
// memoisation of otherwise-identical windows (labels inside symbol
// definitions stay in the contents; see expandOne).
func (e *env) newTopWindow(top []cif.Item) (window, geom.Point, bool) {
	bb, ok := cif.BBoxItems(top, e.syms, e.bboxCache)
	if !ok {
		return window{}, geom.Point{}, false
	}
	origin := geom.Pt(bb.XMin, bb.YMin)
	win := window{w: bb.W(), h: bb.H()}
	shift := geom.Translate(-origin.X, -origin.Y)
	for _, it := range top {
		switch it.Kind {
		case cif.ItemBox:
			win.items = append(win.items, witem{
				kind: cif.ItemBox, layer: it.Layer, box: it.Box.Translate(geom.Pt(-origin.X, -origin.Y)),
			})
		case cif.ItemCall:
			win.items = append(win.items, witem{
				kind: cif.ItemCall, symID: it.SymbolID, trans: it.Trans.Then(shift),
			})
		case cif.ItemLabel:
			e.overlay = append(e.overlay, &overlayLabel{
				name: it.Name, at: it.At, layer: it.Layer, hasLayer: it.HasLayer,
			})
		case cif.ItemPolygon:
			e.checkBands(it.Poly.ApplyBands(geom.Identity, e.grid))
			for _, r := range it.Poly.Manhattanize(e.grid) {
				win.items = append(win.items, witem{
					kind: cif.ItemBox, layer: it.Layer, box: r.Translate(geom.Pt(-origin.X, -origin.Y)),
				})
			}
		case cif.ItemWire:
			e.checkBands(it.Wire.ApplyBands(geom.Identity, e.grid))
			for _, r := range it.Wire.Boxes(e.grid) {
				win.items = append(win.items, witem{
					kind: cif.ItemBox, layer: it.Layer, box: r.Translate(geom.Pt(-origin.X, -origin.Y)),
				})
			}
		}
	}
	return win, origin, true
}

// checkBands aborts the plan with a *guard.LimitError when one polygon
// or wire would decompose into more grid bands than the budgets allow;
// ExtractContext's recover wrapper returns it.
func (e *env) checkBands(n int64) {
	if err := e.limits.CheckBands(guard.StageHextPlan, n); err != nil {
		guard.Abort(err)
	}
}

// expandOne replaces every call in the window with its children
// (geometry, sub-calls, labels), keeping coordinates window-relative.
func (e *env) expandOne(win window) window {
	out := window{w: win.w, h: win.h}
	for _, it := range win.items {
		if it.kind != cif.ItemCall {
			out.items = append(out.items, it)
			continue
		}
		e.counters.CellsExpanded++
		sym := e.syms[it.symID]
		for _, sub := range sym.Items {
			switch sub.Kind {
			case cif.ItemBox:
				r := it.trans.ApplyRect(sub.Box)
				out.items = append(out.items, witem{kind: cif.ItemBox, layer: sub.Layer, box: r})
			case cif.ItemPolygon:
				e.checkBands(sub.Poly.ApplyBands(it.trans, e.grid))
				for _, r := range sub.Poly.Apply(it.trans).Manhattanize(e.grid) {
					out.items = append(out.items, witem{kind: cif.ItemBox, layer: sub.Layer, box: r})
				}
			case cif.ItemWire:
				w := geom.Wire{Width: sub.Wire.Width, Path: make([]geom.Point, len(sub.Wire.Path))}
				for i, p := range sub.Wire.Path {
					w.Path[i] = it.trans.Apply(p)
				}
				e.checkBands(w.ApplyBands(geom.Identity, e.grid))
				for _, r := range w.Boxes(e.grid) {
					out.items = append(out.items, witem{kind: cif.ItemBox, layer: sub.Layer, box: r})
				}
			case cif.ItemCall:
				out.items = append(out.items, witem{
					kind: cif.ItemCall, symID: sub.SymbolID, trans: sub.Trans.Then(it.trans),
				})
			case cif.ItemLabel:
				out.items = append(out.items, witem{
					kind: cif.ItemLabel, name: sub.Name, at: it.trans.Apply(sub.At),
					layer: sub.Layer, lbL: sub.HasLayer,
				})
			}
		}
	}
	return out
}

// hasCalls reports whether the window still contains symbol instances.
func (w window) hasCalls() bool {
	for _, it := range w.items {
		if it.kind == cif.ItemCall {
			return true
		}
	}
	return false
}

// key builds the canonical memo key of the window: its size plus its
// sorted contents, with symbol ids replaced by content hashes so that
// structurally identical symbols share windows.
func (e *env) key(win window) string {
	recs := make([][]byte, 0, len(win.items))
	for _, it := range win.items {
		var b []byte
		switch it.kind {
		case cif.ItemBox:
			b = make([]byte, 1+1+4*8)
			b[0] = 0
			b[1] = byte(it.layer)
			putI64(b[2:], it.box.XMin, it.box.YMin, it.box.XMax, it.box.YMax)
		case cif.ItemCall:
			b = make([]byte, 1+8+6*8)
			b[0] = 1
			binary.LittleEndian.PutUint64(b[1:], e.symHash(it.symID))
			t := it.trans
			putI64(b[9:], t.A, t.B, t.C, t.D, t.E, t.F)
		case cif.ItemLabel:
			b = make([]byte, 1+2*8+2)
			b[0] = 2
			putI64(b[1:], it.at.X, it.at.Y)
			b[17] = byte(it.layer)
			if it.lbL {
				b[18] = 1
			}
			b = append(b, it.name...)
		}
		recs = append(recs, b)
	}
	sort.Slice(recs, func(i, j int) bool { return string(recs[i]) < string(recs[j]) })
	out := make([]byte, 16, 16+len(recs)*24)
	putI64(out, win.w, win.h)
	for _, r := range recs {
		out = append(out, byte(len(r)), byte(len(r)>>8))
		out = append(out, r...)
	}
	return string(out)
}

func putI64(dst []byte, vs ...int64) {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(dst[i*8:], uint64(v))
	}
}

// symHash returns a structural hash of a symbol's full expansion, so
// two symbols with identical contents get identical window keys.
func (e *env) symHash(id int) uint64 {
	if h, ok := e.symHashes[id]; ok {
		return h
	}
	e.symHashes[id] = 0 // cycle guard; CIF semantics forbid cycles anyway
	var buf []byte
	sym := e.syms[id]
	for _, it := range sym.Items {
		switch it.Kind {
		case cif.ItemBox:
			var b [34]byte
			b[0] = 0
			b[1] = byte(it.Layer)
			putI64(b[2:], it.Box.XMin, it.Box.YMin, it.Box.XMax, it.Box.YMax)
			buf = append(buf, b[:]...)
		case cif.ItemCall:
			var b [57]byte
			b[0] = 1
			binary.LittleEndian.PutUint64(b[1:], e.symHash(it.SymbolID))
			t := it.Trans
			putI64(b[9:], t.A, t.B, t.C, t.D, t.E, t.F)
			buf = append(buf, b[:]...)
		case cif.ItemLabel:
			buf = append(buf, 2)
			buf = append(buf, it.Name...)
			var b [16]byte
			putI64(b[:], it.At.X, it.At.Y)
			buf = append(buf, b[:]...)
		case cif.ItemPolygon:
			buf = append(buf, 3)
			for _, p := range it.Poly {
				var b [16]byte
				putI64(b[:], p.X, p.Y)
				buf = append(buf, b[:]...)
			}
		case cif.ItemWire:
			buf = append(buf, 4)
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(it.Wire.Width))
			buf = append(buf, b[:]...)
			for _, p := range it.Wire.Path {
				var c [16]byte
				putI64(c[:], p.X, p.Y)
				buf = append(buf, c[:]...)
			}
		}
	}
	h := fnv64(buf)
	e.symHashes[id] = h
	return h
}

func fnv64(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// fnv64str is fnv64 over a string without converting it to a byte
// slice (the content cache hashes canonical keys on the hot path).
func fnv64str(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// chooseCut finds a guillotine cut that avoids every instance bounding
// box. The default (balanced) strategy prefers the cut closest to the
// window's centre along its longer axis, giving the logarithmic
// recursion depth the ideal-array analysis needs; the min-cut strategy
// (HEXT §6's "more intelligent fracturing algorithm") prefers the cut
// that splits the fewest geometry boxes, minimising the seam contents
// the compose routine must match. It returns the axis ('x' means a
// vertical cut at the returned coordinate), the coordinate, and
// whether a cut exists.
func (e *env) chooseCut(win window) (axis byte, at int64, ok bool) {
	var xs, ys []int64
	var insts []geom.Rect
	for _, it := range win.items {
		if it.kind != cif.ItemCall {
			continue
		}
		bb := e.instBBox(it)
		insts = append(insts, bb)
		xs = append(xs, bb.XMin, bb.XMax)
		ys = append(ys, bb.YMin, bb.YMax)
	}
	valid := func(axis byte, at int64) bool {
		if axis == 'x' {
			if at <= 0 || at >= win.w {
				return false
			}
			for _, bb := range insts {
				if bb.XMin < at && at < bb.XMax {
					return false
				}
			}
		} else {
			if at <= 0 || at >= win.h {
				return false
			}
			for _, bb := range insts {
				if bb.YMin < at && at < bb.YMax {
					return false
				}
			}
		}
		return true
	}
	// seamCost counts the geometry boxes a cut would split — the
	// min-cut strategy's objective.
	seamCost := func(axis byte, at int64) int64 {
		var cost int64
		for _, it := range win.items {
			if it.kind != cif.ItemBox {
				continue
			}
			if axis == 'x' {
				if it.box.XMin < at && at < it.box.XMax {
					cost++
				}
			} else {
				if it.box.YMin < at && at < it.box.YMax {
					cost++
				}
			}
		}
		return cost
	}
	best := func(axis byte, cands []int64, mid int64) (int64, bool) {
		found := false
		var bestAt, bestScore int64
		for _, c := range cands {
			if !valid(axis, c) {
				continue
			}
			d := c - mid
			if d < 0 {
				d = -d
			}
			score := d
			if e.fracture == FractureMinCut {
				// Seam cost dominates; distance to middle tie-breaks
				// (scaled down so it never outweighs one split box).
				span := win.w
				if axis == 'y' {
					span = win.h
				}
				score = seamCost(axis, c)*span + d
			}
			if !found || score < bestScore {
				found, bestAt, bestScore = true, c, score
			}
		}
		return bestAt, found
	}

	// Prefer splitting the longer dimension for balanced recursion.
	tryX := func() (byte, int64, bool) {
		if at, ok := best('x', append(xs, win.w/2), win.w/2); ok {
			return 'x', at, true
		}
		return 0, 0, false
	}
	tryY := func() (byte, int64, bool) {
		if at, ok := best('y', append(ys, win.h/2), win.h/2); ok {
			return 'y', at, true
		}
		return 0, 0, false
	}
	if win.w >= win.h {
		if a, v, ok := tryX(); ok {
			return a, v, true
		}
		return tryY()
	}
	if a, v, ok := tryY(); ok {
		return a, v, true
	}
	return tryX()
}

// splitWindow divides the window at the cut, clipping geometry and
// assigning instances and labels to the proper side. For axis 'x', a
// is the left part and b the right part (b's items are re-based to its
// origin). The cut is guaranteed by chooseCut not to straddle any
// instance bounding box.
func (e *env) splitWindow(win window, axis byte, at int64) (a, b window) {
	if axis == 'x' {
		a = window{w: at, h: win.h}
		b = window{w: win.w - at, h: win.h}
	} else {
		a = window{w: win.w, h: at}
		b = window{w: win.w, h: win.h - at}
	}
	shiftB := geom.Pt(0, 0)
	if axis == 'x' {
		shiftB = geom.Pt(-at, 0)
	} else {
		shiftB = geom.Pt(0, -at)
	}
	lineOf := func(r geom.Rect) (lo, hi int64) {
		if axis == 'x' {
			return r.XMin, r.XMax
		}
		return r.YMin, r.YMax
	}
	ptCoord := func(p geom.Point) int64 {
		if axis == 'x' {
			return p.X
		}
		return p.Y
	}
	for _, it := range win.items {
		switch it.kind {
		case cif.ItemBox:
			lo, hi := lineOf(it.box)
			if lo < at {
				clipped := it
				if hi > at {
					if axis == 'x' {
						clipped.box.XMax = at
					} else {
						clipped.box.YMax = at
					}
				}
				a.items = append(a.items, clipped)
			}
			if hi > at {
				clipped := it
				if lo < at {
					if axis == 'x' {
						clipped.box.XMin = at
					} else {
						clipped.box.YMin = at
					}
				}
				clipped.box = clipped.box.Translate(shiftB)
				b.items = append(b.items, clipped)
			}
		case cif.ItemCall:
			bb := e.instBBox(it)
			lo, hi := lineOf(bb)
			_ = hi
			if hi <= at {
				a.items = append(a.items, it)
			} else if lo >= at {
				moved := it
				moved.trans = it.trans.Then(geom.Translate(shiftB.X, shiftB.Y))
				b.items = append(b.items, moved)
			} else {
				// chooseCut guarantees this cannot happen; putting the
				// instance on the low side keeps extraction total if
				// it somehow does.
				a.items = append(a.items, it)
			}
		case cif.ItemLabel:
			// A label exactly on the cut stays with the low side,
			// whose boundary (inclusive in the leaf sweep) it sits on.
			if ptCoord(it.at) <= at {
				a.items = append(a.items, it)
			} else {
				moved := it
				moved.at = it.at.Add(shiftB)
				b.items = append(b.items, moved)
			}
		}
	}
	return a, b
}
