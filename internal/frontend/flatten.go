// Symbol-level pre-flattening: the streamed alternative to the lazy
// heap Stream.
//
// The heap front end re-derives every box of every instance through
// the call hierarchy: N boxes cost N heap operations plus a transform
// chain per box. The pre-flattener instead flattens each cif.Symbol
// body ONCE into a canonical arena of boxes sorted by descending top
// edge, and then stamps instances by applying the instance's affine
// transform to the whole arena — a linear pass. Because every CIF
// transform is one of the eight orthogonal matrices, composed-
// transform stamping is exact: the stamped rectangles are bit-equal to
// the legacy stream's stepwise expansion. A transform with D == 0 and
// E == 1 (translations) maps descending tops to descending tops, so
// the stamped run needs no sort at all; mirrored and rotated instances
// re-sort their run, paying only when the transform demands it.
//
// Polygons and wires cannot be pre-flattened: manhattanisation snaps
// to the grid AFTER transforming, so it does not commute with the
// instance transform. They ride in the arena as deferred "impure"
// items carrying their accumulated local transform and are
// manhattanised per instance with the full composed transform —
// exactly what the legacy stream does.
//
// Instances are stamped in parallel by a worker pool and their sorted
// runs are k-way merged by FlatStream, which delivers boxes in
// descending-top order while later instances are still being stamped:
// a box may be emitted as soon as its top is no lower than every
// unstamped instance's bounding-box top (the same bound the lazy heap
// uses to schedule call expansion). The sweep therefore overlaps the
// flatten.
//
// The merge delivers the same multiset of boxes at every stop as the
// legacy stream. The sweep's output depends only on those per-stop
// multisets — not on intra-stop delivery order — so the extraction
// output is byte-identical to the heap path's.
package frontend

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ace/internal/cif"
	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/tech"
)

// Flat is a pre-flattened design: per-symbol box arenas plus the list
// of instances to stamp. Build one with Flatten, then open a
// FlatStream (serial sweep) or band streams (parallel sweep) to
// consume the boxes. A Flat may be consumed once.
type Flat struct {
	grid   int64
	keepNG bool
	syms   map[int]*cif.Symbol
	bboxes map[int]geom.Rect
	arenas map[int]*symArena
	insts  []flatInstance
	banned map[int]bool // lenient-mode dropped symbols (see guard.go)
	pool   *Arena       // pooled run buffers; nil means plain allocation

	prepassed bool // instance impure boxes materialised

	// Hardening state: ctx cancels the stamp pool cooperatively;
	// limits bound materialised boxes and retained bytes; the first
	// worker failure (panic, injected fault, budget, cancellation)
	// lands in err, aborts the remaining stamping and releases every
	// consumer blocked on a stream. buildErr carries arena-fold budget
	// violations out of the recursive build.
	ctx       context.Context
	limits    guard.Limits
	buildErr  error
	arenaBox  int64 // boxes materialised across all arenas
	failMu    sync.Mutex
	err       error
	streams   []*FlatStream
	abortFlag atomic.Bool
	retained  atomic.Int64 // approximate bytes of published runs + arenas

	started  time.Time
	boxesOut atomic.Int64
	nonManh  atomic.Int64
	sortNs   atomic.Int64
	stampNs  atomic.Int64
	doneAt   atomic.Int64 // unix nanos when the last run published
}

// fail records the first pipeline failure, aborts outstanding stamping
// and wakes every consumer blocked on a stream so the sweep above can
// unwind. Safe to call from any worker.
func (fl *Flat) fail(err error) {
	if err == nil {
		return
	}
	fl.failMu.Lock()
	if fl.err == nil {
		fl.err = err
	}
	streams := fl.streams
	fl.failMu.Unlock()
	fl.abortFlag.Store(true)
	for _, s := range streams {
		s.fail()
	}
}

// Err reports the first failure of the flatten pipeline: a stamp
// worker panic (as a *guard.PanicError), an exceeded budget, an
// injected fault or context cancellation. Callers must check it after
// the consuming sweep finishes — a failed stream reports exhaustion to
// keep the scan.Source contract, so the sweep's partial result must be
// discarded when Err is non-nil.
func (fl *Flat) Err() error {
	fl.failMu.Lock()
	defer fl.failMu.Unlock()
	return fl.err
}

// symArena is one symbol's flattened body.
type symArena struct {
	boxes  []Box        // pure boxes, sorted by descending Rect.YMax
	impure []impureItem // deferred polygons/wires
	weight int          // len(boxes) + an estimate for impure output
}

// impureItem is a polygon or wire whose manhattanisation must wait for
// the instance transform.
type impureItem struct {
	isWire bool
	layer  tech.Layer
	poly   geom.Polygon
	wire   geom.Wire
	tr     geom.Transform // accumulated transform within the symbol
}

// flatInstance is one unit of stamping work: either an instance of a
// flattened symbol arena, or a chunk of call-free items flattened
// directly (top-level geometry, or pieces of a split leaf symbol).
type flatInstance struct {
	sym    int        // symbol id, or -1 for a direct item chunk
	items  []cif.Item // when sym < 0; never contains calls
	tr     geom.Transform
	top    int64 // transformed bounding-box top: bound on stamped tops
	weight int   // estimated box count, for expansion and scheduling

	impBoxes []Box // prepass-materialised impure boxes (may be nil)
	impDone  bool
}

// impureBoxEstimate is the scheduling weight of one deferred polygon
// or wire (manhattanisation count is unknown until stamped).
const impureBoxEstimate = 8

// Flatten pre-flattens the file's top cell. ctx cancels the stamp
// workers it later launches; nil means never.
func Flatten(ctx context.Context, f *cif.File, opts Options) (*Flat, error) {
	top, _ := f.TopSymbol()
	return FlattenItems(ctx, top, f.Symbols, opts)
}

// FlattenItems pre-flattens an explicit item list. An empty design
// yields a Flat whose streams simply report exhaustion; callers that
// must reject empty designs do so via New, which the extractor runs
// first for labels anyway. The error covers the synchronous build:
// cyclic or over-deep hierarchies, and arena budgets (the arena fold
// is where a hierarchy bomb would otherwise materialise — a 10-level
// 100x fan-out must fail fast here, not OOM).
func FlattenItems(ctx context.Context, items []cif.Item, syms map[int]*cif.Symbol, opts Options) (fl *Flat, err error) {
	defer guard.Recover(guard.StageArena, &err)
	if err := guard.Inject(guard.StageArena); err != nil {
		return nil, err
	}
	var banned map[int]bool
	if opts.Lenient {
		// The diagnostics themselves come from the Stream build, which
		// the extractor always runs first (for labels); reporting here
		// too would double them. The ban set must match regardless.
		banned = checkHierarchyLenient(items, syms, opts.Limits.Depth(), nil)
	} else if err := checkHierarchy(items, syms, opts.Limits.Depth()); err != nil {
		return nil, err
	}
	grid := opts.Grid
	if grid <= 0 {
		grid = 10
	}
	fl = &Flat{
		grid:   grid,
		keepNG: opts.KeepGlass,
		syms:   syms,
		bboxes: map[int]geom.Rect{},
		arenas: map[int]*symArena{},
		banned: banned,
		pool:   opts.Arena,
		ctx:    ctx,
		limits: opts.Limits,
	}
	fl.addInstances(items, geom.Identity)
	if fl.buildErr != nil {
		return nil, fl.buildErr
	}
	fl.retained.Store(fl.arenaBox * guard.BoxBytes)
	if err := fl.limits.CheckMem(guard.StageArena, fl.retained.Load()); err != nil {
		return nil, err
	}
	return fl, nil
}

// addInstances turns an item list into stamping work: non-call
// geometry becomes one direct chunk, each call becomes a symbol
// instance. Labels are skipped — the extractor takes labels from the
// legacy Stream so their delivery order is bit-for-bit unchanged.
func (fl *Flat) addInstances(items []cif.Item, tr geom.Transform) {
	if fl.buildErr != nil {
		return
	}
	var direct []cif.Item
	for _, it := range items {
		switch it.Kind {
		case cif.ItemBox, cif.ItemPolygon, cif.ItemWire:
			direct = append(direct, it)
		case cif.ItemCall:
			if fl.banned[it.SymbolID] {
				continue // dropped by lenient hierarchy validation
			}
			sub, ok := cif.SymbolBBox(it.SymbolID, fl.syms, fl.bboxes)
			if !ok {
				continue // empty symbol, exactly as the heap skips it
			}
			t := it.Trans.Then(tr)
			a := fl.arena(it.SymbolID)
			top := t.ApplyRect(sub).YMax
			if len(a.impure) > 0 {
				// Manhattanised geometry can overshoot the bounding
				// box by up to a grid band; round the watermark bound
				// up so no stamped box outranks it (the heap stream
				// rounds its call keys identically).
				top = ceilToGrid(top, fl.grid)
			}
			fl.insts = append(fl.insts, flatInstance{
				sym:    it.SymbolID,
				tr:     t,
				top:    top,
				weight: a.weight,
			})
		}
	}
	if len(direct) > 0 {
		fl.addDirect(direct, tr)
	}
}

// addDirect appends a call-free item chunk as one instance.
func (fl *Flat) addDirect(items []cif.Item, tr geom.Transform) {
	bb, ok := cif.BBoxItems(items, fl.syms, fl.bboxes)
	if !ok {
		return
	}
	w, impure := 0, false
	for _, it := range items {
		if it.Kind == cif.ItemBox {
			w++
		} else {
			w += impureBoxEstimate
			impure = true
		}
	}
	top := tr.ApplyRect(bb).YMax
	if impure {
		top = ceilToGrid(top, fl.grid)
	}
	fl.insts = append(fl.insts, flatInstance{
		sym:    -1,
		items:  items,
		tr:     tr,
		top:    top,
		weight: w,
	})
}

// arena returns the symbol's flattened body, building and memoising it
// (and every symbol below it) on first use. Sub-arenas fold into their
// parents by transforming the whole child arena — the memoisation that
// makes repeated instantiation cheap.
func (fl *Flat) arena(id int) *symArena {
	if a, ok := fl.arenas[id]; ok {
		return a
	}
	a := &symArena{}
	fl.arenas[id] = a // placed first so a recursive definition terminates
	sym := fl.syms[id]
	if sym == nil {
		return a
	}
	for _, it := range sym.Items {
		if fl.buildErr != nil {
			return a
		}
		switch it.Kind {
		case cif.ItemBox:
			a.addBox(it.Layer, it.Box, fl.keepNG)
		case cif.ItemPolygon:
			a.impure = append(a.impure, impureItem{
				layer: it.Layer, poly: it.Poly, tr: geom.Identity,
			})
		case cif.ItemWire:
			a.impure = append(a.impure, impureItem{
				isWire: true, layer: it.Layer, wire: it.Wire, tr: geom.Identity,
			})
		case cif.ItemCall:
			if fl.banned[it.SymbolID] {
				continue // dropped by lenient hierarchy validation
			}
			child := fl.arena(it.SymbolID)
			if fl.buildErr != nil {
				return a
			}
			// Budget-check BEFORE the fold copies the child in: a
			// hierarchy bomb multiplies the arena a hundredfold per
			// level, and the check must fire before the allocation,
			// not after.
			grown := fl.arenaBox + int64(len(a.boxes)) + int64(len(child.boxes))
			if err := fl.limits.CheckExpanded(guard.StageArena, grown); err != nil {
				fl.buildErr = err
				return a
			}
			if err := fl.limits.CheckMem(guard.StageArena, grown*guard.BoxBytes); err != nil {
				fl.buildErr = err
				return a
			}
			for _, b := range child.boxes {
				// Child boxes are pre-filtered; orthogonal transforms
				// keep non-empty rects non-empty, so no re-check.
				a.boxes = append(a.boxes, Box{Layer: b.Layer, Rect: it.Trans.ApplyRect(b.Rect)})
			}
			for _, im := range child.impure {
				im.tr = im.tr.Then(it.Trans)
				a.impure = append(a.impure, im)
			}
		}
	}
	fl.arenaBox += int64(len(a.boxes))
	if err := fl.limits.CheckExpanded(guard.StageArena, fl.arenaBox); err != nil {
		fl.buildErr = err
		return a
	}
	sort.Slice(a.boxes, func(i, j int) bool {
		return a.boxes[i].Rect.YMax > a.boxes[j].Rect.YMax
	})
	a.weight = len(a.boxes) + impureBoxEstimate*len(a.impure)
	return a
}

func (a *symArena) addBox(l tech.Layer, r geom.Rect, keepNG bool) {
	if r.Empty() {
		return
	}
	if l == tech.Glass && !keepNG {
		return
	}
	a.boxes = append(a.boxes, Box{Layer: l, Rect: r})
}

// minExpandWeight keeps the expansion loop from shredding instances
// whose stamp is already cheap.
const minExpandWeight = 2048

// expand refines the instance list until it holds at least target
// units of stamping work, by repeatedly unfolding the heaviest
// instance: a symbol instance becomes its direct geometry plus one
// instance per sub-call; a direct chunk splits in half. This is what
// gives the worker pool parallel grain when the design's top level is
// a single call (Mesh, Statistical) — the output multiset is invariant
// under expansion, so worker count and grain never change the
// extraction result.
func (fl *Flat) expand(target int) {
	for guard := 0; len(fl.insts) < target && guard < 4*target; guard++ {
		best, bw := -1, minExpandWeight
		for i := range fl.insts {
			in := &fl.insts[i]
			if in.weight < bw {
				continue
			}
			if in.sym < 0 && len(in.items) < 2 {
				continue
			}
			best, bw = i, in.weight
		}
		if best < 0 {
			return
		}
		in := fl.insts[best]
		fl.insts[best] = fl.insts[len(fl.insts)-1]
		fl.insts = fl.insts[:len(fl.insts)-1]
		if in.sym >= 0 {
			fl.addInstances(fl.syms[in.sym].Items, in.tr)
		} else {
			mid := len(in.items) / 2
			fl.addDirect(in.items[:mid], in.tr)
			fl.addDirect(in.items[mid:], in.tr)
		}
	}
}

// prepass materialises every instance's impure boxes in parallel, so
// box counts and tops are exact before any band cuts are chosen. Pure
// arena boxes are not materialised here — only their transformed tops
// are read — so the prepass stays cheap relative to the stamp.
func (fl *Flat) prepass(workers int) error {
	if fl.prepassed {
		return nil
	}
	fl.prepassed = true
	return fl.forEachInstance(workers, func(i int) {
		fl.materialiseImpure(&fl.insts[i])
	})
}

// materialiseImpure stamps an instance's deferred polygons and wires.
func (fl *Flat) materialiseImpure(in *flatInstance) {
	if in.impDone {
		return
	}
	in.impDone = true
	if in.sym < 0 {
		for _, it := range in.items {
			switch it.Kind {
			case cif.ItemPolygon:
				in.impBoxes = fl.appendImpure(in.impBoxes, impureItem{
					layer: it.Layer, poly: it.Poly, tr: geom.Identity,
				}, in.tr)
			case cif.ItemWire:
				in.impBoxes = fl.appendImpure(in.impBoxes, impureItem{
					isWire: true, layer: it.Layer, wire: it.Wire, tr: geom.Identity,
				}, in.tr)
			}
		}
		return
	}
	for _, im := range fl.arenas[in.sym].impure {
		in.impBoxes = fl.appendImpure(in.impBoxes, im, in.tr)
	}
}

// appendImpure manhattanises one deferred item under the full composed
// transform — the identical arithmetic to the legacy stream's
// expansion, so the resulting rectangles are bit-equal.
func (fl *Flat) appendImpure(out []Box, im impureItem, inst geom.Transform) []Box {
	fl.nonManh.Add(1)
	full := im.tr.Then(inst)
	emit := func(l tech.Layer, r geom.Rect) {
		if r.Empty() || (l == tech.Glass && !fl.keepNG) {
			return
		}
		out = append(out, Box{Layer: l, Rect: r})
	}
	var bands int64
	if im.isWire {
		bands = im.wire.ApplyBands(full, fl.grid)
	} else {
		bands = im.poly.ApplyBands(full, fl.grid)
	}
	if err := fl.limits.CheckBands(guard.StageStamp, bands); err != nil {
		guard.Abort(err) // every caller runs under a guard.Run worker
	}
	// Instances materialise concurrently, so each call draws its own
	// decomposition scratch from the pool; emit copies every rect out
	// before the scratch goes back.
	sc := fl.pool.GetBoxScratch()
	if im.isWire {
		for _, r := range im.wire.ApplyBoxes(sc, full, fl.grid) {
			emit(im.layer, r)
		}
	} else {
		for _, r := range im.poly.ApplyManhattanize(sc, full, fl.grid) {
			emit(im.layer, r)
		}
	}
	fl.pool.PutBoxScratch(sc)
	return out
}

// SortedTops runs the prepass and returns every stamped box top,
// sorted descending — the exact multiset the materialising pipeline
// sorts, so cut selection (scan.CutsFromTops) lands on the identical
// band boundaries. len(result) is the exact box count. The error
// surfaces prepass-worker panics, injected faults and cancellation.
func (fl *Flat) SortedTops(workers int) ([]int64, error) {
	if err := fl.prepass(workers); err != nil {
		return nil, err
	}
	parts := make([][]int64, len(fl.insts))
	err := fl.forEachInstance(workers, func(i int) {
		in := &fl.insts[i]
		var tops []int64
		if in.sym >= 0 {
			a := fl.arenas[in.sym]
			tops = make([]int64, 0, len(a.boxes)+len(in.impBoxes))
			for _, b := range a.boxes {
				tops = append(tops, in.tr.ApplyRect(b.Rect).YMax)
			}
		} else {
			tops = make([]int64, 0, len(in.items)+len(in.impBoxes))
			for _, it := range in.items {
				if it.Kind != cif.ItemBox {
					continue
				}
				r := in.tr.ApplyRect(it.Box)
				if r.Empty() || (it.Layer == tech.Glass && !fl.keepNG) {
					continue
				}
				tops = append(tops, r.YMax)
			}
		}
		for _, b := range in.impBoxes {
			tops = append(tops, b.Rect.YMax)
		}
		parts[i] = tops
	})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	all := make([]int64, 0, n)
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
	if err := fl.limits.CheckBoxes(guard.StagePrepass, int64(len(all))); err != nil {
		return nil, err
	}
	return all, nil
}

// forEachInstance applies f to every instance index from a pool of
// workers. Each worker runs under panic isolation; the first failure
// (panic, injected fault, cancellation) stops the remaining work and
// is returned with stage attribution.
func (fl *Flat) forEachInstance(workers int, f func(int)) error {
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	record := func(err error) {
		if err != nil {
			e := err
			firstErr.CompareAndSwap(nil, &e)
		}
	}
	work := func() error {
		for {
			if firstErr.Load() != nil {
				return nil
			}
			if err := guard.Ctx(fl.ctx, guard.StagePrepass); err != nil {
				return err
			}
			if err := guard.Inject(guard.StagePrepass); err != nil {
				return err
			}
			i := int(next.Add(1)) - 1
			if i >= len(fl.insts) {
				return nil
			}
			f(i)
		}
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 || len(fl.insts) < 2 {
		record(guard.Run(guard.StagePrepass, work))
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				record(guard.Run(guard.StagePrepass, work))
			}()
		}
		wg.Wait()
	}
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// stampRun materialises one instance's boxes, sorted by descending
// top. Translations reuse the arena's sort order; mirrored or rotated
// instances — and any run that gained manhattanised boxes — re-sort.
func (fl *Flat) stampRun(in *flatInstance) []Box {
	t0 := time.Now()
	fl.materialiseImpure(in)
	run := fl.pool.GetBoxBuf()
	needSort := true
	if in.sym >= 0 {
		a := fl.arenas[in.sym]
		if run == nil {
			run = make([]Box, 0, len(a.boxes)+len(in.impBoxes))
		}
		for _, b := range a.boxes {
			run = append(run, Box{Layer: b.Layer, Rect: in.tr.ApplyRect(b.Rect)})
		}
		// D == 0, E == 1: new top = old top + F, strictly monotone, so
		// the arena's descending-top order survives the transform.
		needSort = !(in.tr.D == 0 && in.tr.E == 1) || len(in.impBoxes) > 0
	} else {
		if run == nil {
			run = make([]Box, 0, len(in.items)+len(in.impBoxes))
		}
		for _, it := range in.items {
			if it.Kind != cif.ItemBox {
				continue
			}
			r := in.tr.ApplyRect(it.Box)
			if r.Empty() || (it.Layer == tech.Glass && !fl.keepNG) {
				continue
			}
			run = append(run, Box{Layer: it.Layer, Rect: r})
		}
	}
	run = append(run, in.impBoxes...)
	if needSort {
		ts := time.Now()
		sort.Slice(run, func(i, j int) bool {
			return run[i].Rect.YMax > run[j].Rect.YMax
		})
		fl.sortNs.Add(int64(time.Since(ts)))
	}
	fl.boxesOut.Add(int64(len(run)))
	fl.stampNs.Add(int64(time.Since(t0)))
	return run
}

// Stream expands the instance list for the given grain, launches the
// stamp workers and returns the merged descending-top box source for
// the serial sweep. Boxes flow as instances finish: the caller's sweep
// overlaps the stamping.
func (fl *Flat) Stream(workers int) *FlatStream {
	fl.expand(4*workers + 4)
	s := newFlatStream(fl.insts)
	fl.start(workers, []*FlatStream{s}, nil)
	return s
}

// BandStreams is Stream for the band-parallel sweep: every stamped run
// is routed into the bands it intersects (clipped, with the exact
// partition rules of scan.ParallelSweep) and each band merges its
// share independently, so all band sweepers consume concurrently with
// the stamping. Callers choose cuts from SortedTops first; expansion
// has already happened inside it via Prepare, so the instance set here
// matches the one SortedTops measured.
func (fl *Flat) BandStreams(workers int, cuts []int64) []*FlatStream {
	streams := make([]*FlatStream, len(cuts)+1)
	for k := range streams {
		streams[k] = newFlatStream(fl.insts)
		for i := range fl.insts {
			in := &fl.insts[i]
			bound := in.top
			if k > 0 && cuts[k-1] < bound {
				bound = cuts[k-1]
			}
			streams[k].runs[i].bound = bound
		}
	}
	fl.start(workers, streams, cuts)
	return streams
}

// Prepare expands the instance list for the given worker grain; called
// before SortedTops so that cut selection and stamping agree on the
// instance set.
func (fl *Flat) Prepare(workers int) {
	fl.expand(4*workers + 4)
}

// start launches the stamp worker pool. Heaviest instances go first so
// the pool tail stays short. Every worker runs under panic isolation;
// the first failure aborts the remaining stamping and fails the
// streams so blocked consumers unwind instead of deadlocking.
func (fl *Flat) start(workers int, streams []*FlatStream, cuts []int64) {
	fl.started = time.Now()
	fl.failMu.Lock()
	fl.streams = append(fl.streams, streams...)
	fl.failMu.Unlock()
	if err := fl.Err(); err != nil {
		// A previous stream of this Flat already failed; keep the new
		// streams consistent instead of blocking their consumers.
		for _, s := range streams {
			s.fail()
		}
		return
	}
	order := make([]int, len(fl.insts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return fl.insts[order[a]].weight > fl.insts[order[b]].weight
	})
	if workers < 1 {
		workers = 1
	}
	if fl.ctx != nil {
		// Watch for external cancellation so consumers blocked in
		// cond.Wait unwind promptly even when no worker is between
		// checks. The watcher exits when the caller's deferred cancel
		// fires, so it never outlives the extraction.
		ctx := fl.ctx
		go func() {
			<-ctx.Done()
			fl.fail(&guard.StageError{Stage: guard.StageStamp, Err: ctx.Err()})
		}()
	}
	var next atomic.Int64
	work := func() error {
		var bands [][]Box
		if cuts != nil {
			bands = make([][]Box, len(cuts)+1)
		}
		for {
			if fl.abortFlag.Load() {
				return nil
			}
			if err := guard.Ctx(fl.ctx, guard.StageStamp); err != nil {
				return err
			}
			oi := int(next.Add(1)) - 1
			if oi >= len(order) {
				return nil
			}
			// The failpoint counts claimed instances only, so its hit
			// count is the instance count whatever the workers' timing:
			// a worker that finds the queue empty, or sees the consumer
			// already done, never reaches it.
			if err := guard.Inject(guard.StageStamp); err != nil {
				return err
			}
			i := order[oi]
			run := fl.stampRun(&fl.insts[i])
			if err := fl.limits.CheckMem(guard.StageStamp,
				fl.retained.Add(int64(len(run))*guard.BoxBytes)); err != nil {
				return err
			}
			if cuts == nil {
				if streams[0].publish(i, run) {
					fl.doneAt.Store(time.Now().UnixNano())
				}
				continue
			}
			for k := range bands {
				bands[k] = bands[k][:0]
			}
			routeRun(run, cuts, bands)
			for k, s := range streams {
				out := append(fl.pool.GetBoxBuf(), bands[k]...)
				if s.publish(i, out) && k == len(streams)-1 {
					fl.doneAt.Store(time.Now().UnixNano())
				}
			}
			// The un-routed run dies here; its per-band copies live on
			// in the streams until Release.
			fl.pool.PutBoxBuf(run)
		}
	}
	for w := 0; w < workers; w++ {
		go func() {
			if err := guard.Run(guard.StageStamp, work); err != nil {
				fl.fail(err)
			}
		}()
	}
}

// routeRun distributes one sorted run into per-band lists, clipped to
// each band — the same assignment partitionBoxes makes: band k covers
// (cuts[k], cuts[k-1]], a box belongs to every band it intersects, and
// a box whose top sits exactly on a cut belongs to the band below.
// Clipping tops to the band boundary is monotone, so each band's list
// stays sorted by descending top.
func routeRun(run []Box, cuts []int64, out [][]Box) {
	nBands := len(cuts) + 1
	for _, b := range run {
		y0, y1 := b.Rect.YMin, b.Rect.YMax
		k := 0
		for k < len(cuts) && y1 <= cuts[k] {
			k++
		}
		for ; k < nBands; k++ {
			if k > 0 && y0 >= cuts[k-1] {
				break
			}
			r := b.Rect
			if k > 0 && r.YMax > cuts[k-1] {
				r.YMax = cuts[k-1]
			}
			if k < len(cuts) && r.YMin < cuts[k] {
				r.YMin = cuts[k]
			}
			out[k] = append(out[k], Box{Layer: b.Layer, Rect: r})
			if k == len(cuts) || y0 >= cuts[k] {
				break
			}
		}
	}
}

// Release returns the published runs' backing buffers to the arena the
// Flat was built with. Call it only after every stream is fully
// consumed and the pipeline succeeded — the extraction Result has
// copied everything it keeps by then. On a failed or still-stamping
// pipeline Release is a no-op: a worker could still publish into a
// buffer we just reissued.
func (fl *Flat) Release() {
	if fl.pool == nil {
		return
	}
	fl.failMu.Lock()
	streams := fl.streams
	failed := fl.err != nil
	fl.failMu.Unlock()
	if failed {
		return
	}
	for _, s := range streams {
		s.mu.Lock()
		if s.pending != 0 || s.failed {
			s.mu.Unlock()
			return
		}
		for i := range s.runs {
			fl.pool.PutBoxBuf(s.runs[i].boxes)
			s.runs[i].boxes = nil
		}
		s.mu.Unlock()
	}
}

// Stats reports front-end counters for the flattened path, in the
// legacy Stream's terms: BoxesOut counts design boxes delivered,
// CellsExpanded counts instances stamped, NonManhattan counts deferred
// polygon/wire stampings. PeakQueue is zero — there is no queue.
func (fl *Flat) Stats() Stats {
	return Stats{
		BoxesOut:      int(fl.boxesOut.Load()),
		CellsExpanded: len(fl.insts),
		NonManhattan:  int(fl.nonManh.Load()),
	}
}

// Timing reports (wall-clock from worker launch to the last run
// published, CPU time spent stamping, CPU time spent sorting runs).
// The wall-clock overlaps the sweep that consumes the streams.
func (fl *Flat) Timing() (flatten, stamp, sortRuns time.Duration) {
	if done := fl.doneAt.Load(); done != 0 && !fl.started.IsZero() {
		flatten = time.Unix(0, done).Sub(fl.started)
	}
	return flatten, time.Duration(fl.stampNs.Load()), time.Duration(fl.sortNs.Load())
}

// FlatStream merges stamped runs into one descending-top box source
// (the scan.Source contract). A box is released once no unpublished
// run could still produce a higher one; consumers block until then, so
// delivery order is correct even while stamping is in flight.
type FlatStream struct {
	mu      sync.Mutex
	cond    *sync.Cond
	runs    []flatRun
	pending int
	failed  bool // pipeline aborted; report exhaustion, owner's Err has why
}

type flatRun struct {
	boxes []Box
	pos   int
	bound int64 // inclusive upper bound on this run's unconsumed tops
	done  bool
}

func newFlatStream(insts []flatInstance) *FlatStream {
	s := &FlatStream{runs: make([]flatRun, len(insts)), pending: len(insts)}
	s.cond = sync.NewCond(&s.mu)
	for i := range insts {
		s.runs[i].bound = insts[i].top
	}
	return s
}

// publish installs a finished run; returns true when it was the last.
func (s *FlatStream) publish(i int, boxes []Box) bool {
	s.mu.Lock()
	r := &s.runs[i]
	r.boxes = boxes
	r.done = true
	if len(boxes) > 0 {
		r.bound = boxes[0].Rect.YMax
	}
	s.pending--
	last := s.pending == 0
	s.cond.Broadcast()
	s.mu.Unlock()
	return last
}

// fail marks the stream aborted and wakes blocked consumers, which
// then observe exhaustion — the scan.Source contract has no error
// channel, so the Flat that owns the stream carries the error and
// callers check Flat.Err after the sweep returns.
func (s *FlatStream) fail() {
	s.mu.Lock()
	s.failed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// pick returns the run to pop next, -1 to wait for a publication, or
// -2 when every run is exhausted.
func (s *FlatStream) pick() int {
	if s.failed {
		return -2
	}
	best := -1
	var bestTop, maxPending int64
	havePending := false
	for i := range s.runs {
		r := &s.runs[i]
		if !r.done {
			if !havePending || r.bound > maxPending {
				maxPending, havePending = r.bound, true
			}
			continue
		}
		if r.pos < len(r.boxes) {
			if t := r.boxes[r.pos].Rect.YMax; best < 0 || t > bestTop {
				best, bestTop = i, t
			}
		}
	}
	switch {
	case best >= 0 && (!havePending || bestTop >= maxPending):
		return best
	case best < 0 && !havePending:
		return -2
	default:
		return -1
	}
}

// NextTop reports the top of the next box without consuming it,
// blocking while an unpublished run could still beat it.
func (s *FlatStream) NextTop() (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		switch i := s.pick(); {
		case i == -2:
			return 0, false
		case i >= 0:
			return s.runs[i].boxes[s.runs[i].pos].Rect.YMax, true
		default:
			s.cond.Wait()
		}
	}
}

// Next returns the next box in descending top order.
func (s *FlatStream) Next() (Box, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		switch i := s.pick(); {
		case i == -2:
			return Box{}, false
		case i >= 0:
			r := &s.runs[i]
			b := r.boxes[r.pos]
			r.pos++
			return b, true
		default:
			s.cond.Wait()
		}
	}
}

// Drain returns all remaining boxes (tests and baselines).
func (s *FlatStream) Drain() []Box {
	var out []Box
	for {
		b, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, b)
	}
}
