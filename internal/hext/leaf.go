package hext

import (
	"sort"

	"ace/internal/cif"
	"ace/internal/frontend"
	"ace/internal/geom"
	"ace/internal/netlist"
	"ace/internal/scan"
)

// extractLeaf runs the modified flat extractor over a geometry-only
// window: ACE's scanline sweep with geometry keeping enabled, followed
// by interface computation — "the modified version of ACE has extra
// code to output an interface for each window that it analyzes"
// (HEXT §3).
//
// The sweep itself is content-addressed: the window's contents are
// rebased to their bounding-box anchor, so two windows whose contents
// differ only by translation (different margins inside their frames)
// share one sweep through the content cache. The frame-dependent part
// — boundary edges and partial-transistor slots — is recomputed per
// window from the cached netlist.
func (x *execCtx) extractLeaf(n *dagNode) (*winResult, []string) {
	boxes, labels, anchor := leafContent(n.win)

	var (
		nl     *netlist.Netlist
		warns  []string
		nboxes int
	)
	if c := x.cache; c != nil {
		ck := contentKey(boxes, labels, anchor)
		ent, owner := c.lookup(fnv64str(ck), ck)
		if owner {
			// Owner of a memory miss: try the disk tier before sweeping.
			// Single-flight is preserved across both tiers — waiters on
			// ent.ready get whichever source the owner used.
			x.counters.CacheMisses++
			snl, swarns, sboxes, ok := x.diskSweep(ck)
			if !ok {
				x.counters.LeafSweeps++
				snl, swarns = runLeafSweep(boxes, labels, anchor, x.pool)
				sboxes = len(boxes)
				x.putSweep(ck, snl, swarns, sboxes)
			}
			c.complete(ent, snl, swarns, sboxes)
		} else {
			<-ent.ready
			x.counters.CacheHits++
		}
		nl, warns, nboxes = ent.nl, ent.warnings, ent.boxes
	} else if x.disk != nil {
		ck := contentKey(boxes, labels, anchor)
		var ok bool
		if nl, warns, nboxes, ok = x.diskSweep(ck); !ok {
			x.counters.LeafSweeps++
			nl, warns = runLeafSweep(boxes, labels, anchor, x.pool)
			nboxes = len(boxes)
			x.putSweep(ck, nl, warns, nboxes)
		}
	} else {
		x.counters.LeafSweeps++
		nl, warns = runLeafSweep(boxes, labels, anchor, x.pool)
		nboxes = len(boxes)
	}
	return buildLeafResult(n.id, n.win, nl, anchor, nboxes), warns
}

// diskSweep reads a persisted leaf sweep from the disk tier. Failures
// of any kind are a miss; an entry whose verified payload fails to
// decode is quarantined.
func (x *execCtx) diskSweep(ck string) (*netlist.Netlist, []string, int, bool) {
	if x.disk == nil {
		return nil, nil, 0, false
	}
	// decodeSweep copies everything it keeps, so the worker's read
	// buffer can host the payload and be reused by the next probe.
	payload, ok := x.disk.GetBuf(sweepKey(ck), &x.readBuf)
	if !ok {
		x.counters.DiskMisses++
		return nil, nil, 0, false
	}
	nl, warns, boxes, err := decodeSweep(payload)
	if err != nil {
		x.disk.Quarantine(sweepKey(ck))
		x.counters.DiskMisses++
		return nil, nil, 0, false
	}
	x.counters.DiskHits++
	x.counters.DiskBytes += int64(len(payload))
	return nl, warns, boxes, true
}

// putSweep persists a freshly-run leaf sweep, best-effort.
func (x *execCtx) putSweep(ck string, nl *netlist.Netlist, warns []string, boxes int) {
	if x.disk == nil {
		return
	}
	x.encBuf = encodeSweep(x.encBuf, nl, warns, boxes)
	if x.disk.Put(sweepKey(ck), x.encBuf) == nil {
		x.counters.DiskBytes += int64(len(x.encBuf))
	}
}

// leafContent gathers a window's geometry and labels (in window-frame
// coordinates) plus the anchor: the lower-left corner of the content's
// bounding box. An empty window anchors at the origin.
func leafContent(win window) (boxes []frontend.Box, labels []frontend.Label, anchor geom.Point) {
	first := true
	touch := func(x, y int64) {
		if first {
			anchor = geom.Pt(x, y)
			first = false
			return
		}
		if x < anchor.X {
			anchor.X = x
		}
		if y < anchor.Y {
			anchor.Y = y
		}
	}
	for _, it := range win.items {
		switch it.kind {
		case cif.ItemBox:
			if it.box.Empty() {
				continue
			}
			boxes = append(boxes, frontend.Box{Layer: it.layer, Rect: it.box})
			touch(it.box.XMin, it.box.YMin)
		case cif.ItemLabel:
			labels = append(labels, frontend.Label{
				Name: it.name, At: it.at, Layer: it.layer, HasLayer: it.lbL,
			})
			touch(it.at.X, it.at.Y)
		}
	}
	return boxes, labels, anchor
}

// contentKey builds the canonical, translation-invariant key of a leaf
// window's content: its sorted anchored records, frame-free. Two
// windows get equal keys exactly when their contents coincide after
// rebasing each to its own anchor — the equivalence class the content
// cache shares sweeps across.
func contentKey(boxes []frontend.Box, labels []frontend.Label, anchor geom.Point) string {
	recs := make([][]byte, 0, len(boxes)+len(labels))
	for _, bx := range boxes {
		b := make([]byte, 1+1+4*8)
		b[0] = 0
		b[1] = byte(bx.Layer)
		putI64(b[2:], bx.Rect.XMin-anchor.X, bx.Rect.YMin-anchor.Y,
			bx.Rect.XMax-anchor.X, bx.Rect.YMax-anchor.Y)
		recs = append(recs, b)
	}
	for _, lb := range labels {
		b := make([]byte, 1+2*8+2, 1+2*8+2+len(lb.Name))
		b[0] = 2
		putI64(b[1:], lb.At.X-anchor.X, lb.At.Y-anchor.Y)
		b[17] = byte(lb.Layer)
		if lb.HasLayer {
			b[18] = 1
		}
		b = append(b, lb.Name...)
		recs = append(recs, b)
	}
	sort.Slice(recs, func(i, j int) bool { return string(recs[i]) < string(recs[j]) })
	size := 0
	for _, r := range recs {
		size += 2 + len(r)
	}
	out := make([]byte, 0, size)
	for _, r := range recs {
		out = append(out, byte(len(r)), byte(len(r)>>8))
		out = append(out, r...)
	}
	return string(out)
}

// sweepHook, when non-nil, is called with +1 as each leaf sweep starts
// and -1 as it ends, so tests can observe how many sweeps the DAG pool
// runs at once. It is set only while no extraction is running.
var sweepHook func(delta int)

// runLeafSweep sweeps the content in anchored coordinates. The boxes
// are put into a total order first (scan.SortTopDown), so the sweep's
// output depends only on the content multiset — required for cached
// results to be interchangeable with fresh ones regardless of the
// order the window assembled its items in.
func runLeafSweep(boxes []frontend.Box, labels []frontend.Label, anchor geom.Point, pool *scan.Pool) (*netlist.Netlist, []string) {
	if sweepHook != nil {
		sweepHook(+1)
		defer sweepHook(-1)
	}
	shift := geom.Pt(-anchor.X, -anchor.Y)
	ab := pool.GetBoxBuf()
	for _, bx := range boxes {
		ab = append(ab, frontend.Box{Layer: bx.Layer, Rect: bx.Rect.Translate(shift)})
	}
	scan.SortTopDown(ab)
	al := make([]frontend.Label, len(labels))
	for i, lb := range labels {
		al[i] = lb
		al[i].At = lb.At.Add(shift)
	}
	res, err := scan.Sweep(scan.NewBoxSource(ab), scan.Options{
		KeepGeometry: true,
		Labels:       al,
		Pool:         pool,
	})
	if err != nil {
		// The sweep only fails on internal invariant violations;
		// surface it as an empty window plus a warning. The failed
		// sweeper (and the box buffer it references) is dropped, not
		// repooled.
		return &netlist.Netlist{}, []string{err.Error()}
	}
	// Finish copied the geometry it kept, so the anchored input run is
	// free again.
	pool.PutBoxBuf(ab)
	return res.Netlist, res.Warnings
}

// buildLeafResult computes the frame-dependent half of a leaf window
// from an (anchored) swept netlist: interface edges for net geometry
// on the boundary and partial-transistor slots for channels touching
// it.
func buildLeafResult(id int, win window, nl *netlist.Netlist, anchor geom.Point, boxes int) *winResult {
	r := &winResult{
		id: id,
		w:  win.w, h: win.h,
		insts: 1,
		leaf:  &leafData{nl: nl, anchor: anchor, boxes: boxes},
	}
	r.netCount = len(nl.Nets)

	frame := geom.Rect{XMin: 0, YMin: 0, XMax: win.w, YMax: win.h}

	// Net interface segments: net geometry touching the boundary.
	for i := range nl.Nets {
		for _, g := range nl.Nets[i].Geometry {
			el, ok := elayerOf(g.Layer)
			if !ok {
				continue
			}
			r.addBoundaryEdges(el, g.Rect.Translate(anchor), frame, int32(i))
		}
	}

	// Partial transistors: devices whose channel touches the boundary.
	for di := range nl.Devices {
		slot := -1
		for _, cr := range nl.Devices[di].Geometry {
			cr = cr.Translate(anchor)
			if touchesFrame(cr, frame) {
				if slot < 0 {
					slot = len(r.leaf.partDevs)
					r.leaf.partDevs = append(r.leaf.partDevs, di)
				}
				r.addBoundaryEdges(eChan, cr, frame, int32(slot))
			}
		}
	}
	r.partCount = len(r.leaf.partDevs)
	return r
}

// addBoundaryEdges appends interface edges for the parts of rect r
// lying on the window frame.
func (w *winResult) addBoundaryEdges(el elayer, r geom.Rect, frame geom.Rect, ref int32) {
	if r.XMin == frame.XMin {
		w.edges = append(w.edges, edge{layer: el, face: faceL, lo: r.YMin, hi: r.YMax, ref: ref})
	}
	if r.XMax == frame.XMax {
		w.edges = append(w.edges, edge{layer: el, face: faceR, lo: r.YMin, hi: r.YMax, ref: ref})
	}
	if r.YMin == frame.YMin {
		w.edges = append(w.edges, edge{layer: el, face: faceB, lo: r.XMin, hi: r.XMax, ref: ref})
	}
	if r.YMax == frame.YMax {
		w.edges = append(w.edges, edge{layer: el, face: faceT, lo: r.XMin, hi: r.XMax, ref: ref})
	}
}

func touchesFrame(r geom.Rect, frame geom.Rect) bool {
	return r.XMin == frame.XMin || r.XMax == frame.XMax ||
		r.YMin == frame.YMin || r.YMax == frame.YMax
}
