package hext

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ace/internal/build"
	"ace/internal/cif"
	"ace/internal/diag"
	"ace/internal/geom"
	"ace/internal/guard"
	"ace/internal/netlist"
	"ace/internal/scan"
	"ace/internal/store"
	"ace/internal/vfs"
)

// Options configures a hierarchical extraction.
type Options struct {
	// Grid is the manhattanisation grid for non-manhattan geometry.
	Grid int64

	// MaxDepth bounds window recursion as a safety net; zero means the
	// default of 64.
	MaxDepth int

	// MaxLeafItems caps the size of a geometry-only window handed to
	// the flat extractor; larger ones are cut in half, which is where
	// partial transistors arise. Zero selects the default of 2000
	// (the paper's primitive windows hold "a few hundred to a few
	// thousand rectangles").
	MaxLeafItems int

	// Workers sets the back-end concurrency: leaf sweeps and composes
	// are scheduled topologically over this many goroutines, and
	// flattening forks at composed windows. 0 or 1 runs serially. The
	// output is byte-identical at every worker count.
	Workers int

	// CacheSize bounds the content-addressed sweep cache, in cached
	// window sweeps: 0 selects the default (4096), negative disables
	// the cache. The cache is keyed on a translation-invariant hash of
	// window contents, so windows identical only up to translation
	// share one sweep; it persists across a Session's Extract calls.
	CacheSize int

	// DisableMemo turns the window memo table and the content cache
	// off, so every window is analysed even when identical to a
	// previous one. Used by the ablation benchmark to quantify what
	// the paper's "redundant windows are recognised and extracted only
	// once" is worth. It also disables the disk cache.
	DisableMemo bool

	// CacheDir, when non-empty, adds a persistent tier under the
	// in-memory caches: a content-addressed store (internal/store) in
	// that directory. Window results and leaf sweeps computed by any
	// process survive there, so a later run of the same (or an edited)
	// design starts warm. Entries are verified against their full key
	// on read, so the disk tier can change speed but never bytes; a
	// store that cannot be opened degrades to a per-run warning, not
	// an error.
	CacheDir string

	// CacheMaxBytes caps the disk cache directory's size: 0 selects
	// store.DefaultMaxBytes, negative disables the cap. Eviction is
	// least-recently-used.
	CacheMaxBytes int64

	// CacheFS is the filesystem the disk cache runs on; nil selects
	// vfs.OS. Fault-injection tests substitute a vfs.FaultFS to prove
	// every disk error degrades to a recompute, never wrong bytes.
	CacheFS vfs.FS

	// Fracture selects the guillotine-cut strategy.
	Fracture Fracture

	// Lenient selects the fail-soft front end for Reader/ReaderContext:
	// parse errors become located diagnostics in Result.Diagnostics and
	// the parser resynchronises instead of aborting, and an empty
	// (or fully-damaged) design yields an empty netlist plus a
	// diagnostic instead of an error. See extract.Options.Lenient.
	Lenient bool

	// Diag caps the diagnostics a lenient run retains; the zero value
	// applies diag.DefaultMaxDiagnostics.
	Diag diag.Limits

	// Limits carries the resource budgets enforced while parsing in
	// Reader/ReaderContext and on each polygon or wire the front end
	// decomposes (budgets always abort, even under Lenient).
	Limits guard.Limits
}

// Fracture selects how windows are cut.
type Fracture int8

const (
	// FractureBalanced cuts nearest the window's centre (default):
	// logarithmic recursion, maximal window reuse on regular arrays.
	FractureBalanced Fracture = iota

	// FractureMinCut cuts where the fewest geometry boxes are split,
	// minimising seam contents — the "more intelligent fracturing"
	// HEXT §6 proposes to reduce compose cost.
	FractureMinCut
)

// Counters reports the work HEXT performed; Tables 5-1/5-2 of the
// HEXT paper read these.
type Counters struct {
	FlatCalls     int // calls to the (modified) flat extractor
	ComposeCalls  int // calls to the compose routine
	MemoHits      int // windows answered from the memo table
	UniqueWindows int // distinct windows processed
	CellsExpanded int // one-level instance expansions
	SeamMatches   int // interface-segment pairs matched

	// SessionHits counts the MemoHits answered from a previous Extract
	// in the same Session (the warm path of incremental re-extraction),
	// as opposed to windows repeated within one run.
	SessionHits int

	// Content-cache counters: a flat call whose anchored content was
	// already swept is a CacheHit and does no sweep, so LeafSweeps =
	// CacheMisses - sweep-tier DiskHits when the cache is enabled and
	// FlatCalls otherwise.
	LeafSweeps  int   // scanline sweeps actually run
	CacheHits   int   // flat calls answered by the content cache
	CacheMisses int   // flat calls that had to sweep or go to disk
	CacheBytes  int64 // approximate bytes retained by the cache (gauge)

	// Disk-tier counters (zero unless Options.CacheDir is set): window
	// trees and leaf sweeps answered by / missing from the persistent
	// store, and the traffic this run exchanged with it.
	DiskHits   int
	DiskMisses int
	DiskBytes  int64 // payload bytes read from + written to the store

	// Disk-error counters, distinct from misses: DiskErrors counts
	// reads that failed for I/O reasons (the entry may exist but could
	// not be read — served as a miss, recomputed), DiskPutErrors counts
	// writes the store abandoned. Nonzero values mean the cache is
	// silently degraded, not that any result was wrong.
	DiskErrors    int
	DiskPutErrors int
}

// Timing splits the run into the paper's phases, in the style of the
// flat extractor's Phases. With Workers > 1 the Flat and Compose
// entries are summed across workers (CPU time, not wall-clock).
type Timing struct {
	Parse    time.Duration // CIF parsing (set by Reader; zero otherwise)
	FrontEnd time.Duration // subdivision, expansion, hashing, planning
	Flat     time.Duration // leaf extraction (modified ACE)
	Compose  time.Duration // compose operations
	Flatten  time.Duration // instantiating the window DAG

	// BackEnd is Flat + Compose, the paper's "back-end" column.
}

// BackEnd returns flat-extraction plus compose time.
func (t Timing) BackEnd() time.Duration { return t.Flat + t.Compose }

// Total returns the whole run.
func (t Timing) Total() time.Duration {
	return t.Parse + t.FrontEnd + t.Flat + t.Compose + t.Flatten
}

// Result of a hierarchical extraction.
type Result struct {
	Netlist  *netlist.Netlist
	Counters Counters
	Timing   Timing
	Warnings []string

	// Diagnostics carries the unified findings of the run (see
	// extract.Result.Diagnostics), sorted by the diag ordering
	// contract.
	Diagnostics diag.Set

	top  *winResult // for hierarchical wirelist emission
	hier []byte     // undecoded window tree of a whole-result disk hit

	// hierStore/hierKey locate the window tree of a whole-result hit
	// whose entry did not embed one (the tree lives in the root's own
	// "w:" entry); WriteHierarchical reads it on demand, so warm runs
	// that never ask for hierarchical output never pay for the tree.
	hierStore *store.Store
	hierKey   string
}

// Extract runs HEXT over a parsed CIF design.
func Extract(f *cif.File, opt Options) (*Result, error) {
	return NewSession(opt).Extract(f)
}

// ExtractContext is Extract with cooperative cancellation: planning,
// the leaf/compose pool and the flattening all check ctx and unwind
// with a stage-attributed error wrapping ctx.Err(). A nil ctx never
// cancels.
func ExtractContext(ctx context.Context, f *cif.File, opt Options) (*Result, error) {
	return NewSession(opt).ExtractContext(ctx, f)
}

// Reader parses CIF text from r and extracts it hierarchically,
// recording the parse phase in the result's Timing.
func Reader(r io.Reader, opt Options) (*Result, error) {
	return ReaderContext(nil, r, opt)
}

// ReaderContext is Reader with cooperative cancellation (see
// ExtractContext).
func ReaderContext(ctx context.Context, r io.Reader, opt Options) (*Result, error) {
	t0 := time.Now()
	f, err := cif.ParseReaderOpts(r, cif.ParseOptions{Limits: opt.Limits, Lenient: opt.Lenient, Diag: opt.Diag})
	if err != nil {
		return nil, err
	}
	parse := time.Since(t0)
	res, err := ExtractContext(ctx, f, opt)
	if err != nil {
		return nil, err
	}
	res.Timing.Parse = parse
	return res, nil
}

// Session is an incremental extractor: the window memo table and the
// content-addressed sweep cache persist across Extract calls, so
// re-extracting a design after an edit only analyses the windows whose
// contents actually changed — the "incremental extractor" direction
// ACE §6 points at ("The edge-based algorithms are well suited for
// hierarchical and incremental extractors"). Memo keys are
// content-derived (symbol ids are replaced by structural hashes), so a
// session can even be reused across different parses of related
// designs.
type Session struct {
	opt   Options
	memo  map[string]*winResult
	cache *leafCache
	ids   int

	// disk is the persistent cache tier (nil without Options.CacheDir);
	// diskWarn reports a store that failed to open, once per Extract.
	disk     *store.Store
	diskWarn string

	// pool keeps sweeper and builder scratch alive across Extract
	// calls — the hierarchical engine's half of the warm loop
	// extract.Engine provides for the flat pipelines. readBuf and
	// encBuf are the serial-phase store codec buffers (window-tree
	// reads and encodes); the parallel leaf workers carry their own in
	// execCtx. Results are byte-identical with and without reuse:
	// Builder.Finish and the win-tree decoder copy everything they
	// emit out of the scratch they ran in.
	pool    *scan.Pool
	readBuf []byte
	encBuf  []byte

	// last is the most recently extracted design, the base Apply edits.
	last *cif.File
}

// NewSession creates an incremental extraction session.
func NewSession(opt Options) *Session {
	s := &Session{opt: opt, memo: map[string]*winResult{}, pool: scan.NewPool()}
	if !opt.DisableMemo && opt.CacheSize >= 0 {
		s.cache = newLeafCache(opt.CacheSize)
	}
	if opt.CacheDir != "" && !opt.DisableMemo {
		disk, err := store.Open(opt.CacheDir, store.Options{MaxBytes: opt.CacheMaxBytes, FS: opt.CacheFS})
		if err != nil {
			// Fail-soft: a broken cache directory costs speed, never
			// correctness — extraction proceeds cold with a warning.
			s.diskWarn = fmt.Sprintf("cache disabled: %v", err)
		} else {
			s.disk = disk
		}
	}
	return s
}

// MemoSize reports the number of unique windows retained.
func (s *Session) MemoSize() int { return len(s.memo) }

// diskIO snapshots the disk tier's I/O counters (zero without one).
func (s *Session) diskIO() store.IOCounters {
	if s.disk == nil {
		return store.IOCounters{}
	}
	return s.disk.IOCounters()
}

// Extract runs HEXT over a design, reusing any windows already
// analysed in this session.
func (s *Session) Extract(f *cif.File) (*Result, error) {
	return s.ExtractContext(nil, f)
}

// ExtractContext is Extract with cooperative cancellation. It is also
// panic-isolated: a panic in planning, a pool worker or the flattener
// surfaces as a *guard.PanicError naming the stage.
func (s *Session) ExtractContext(ctx context.Context, f *cif.File) (res *Result, err error) {
	defer guard.Recover(guard.StageHextPlan, &err)
	opt := s.opt
	grid := opt.Grid
	if grid <= 0 {
		grid = 10
	}
	maxDepth := opt.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 64
	}
	maxLeaf := opt.MaxLeafItems
	if maxLeaf <= 0 {
		maxLeaf = 2000
	}
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	e := &env{
		ctx:       ctx,
		session:   s,
		syms:      f.Symbols,
		bboxCache: map[int]geom.Rect{},
		symHashes: map[int]uint64{},
		memo:      s.memo,
		nodes:     map[string]*dagNode{},
		grid:      grid,
		limits:    opt.Limits,
		maxDepth:  maxDepth,
		maxLeaf:   maxLeaf,
		noMemo:    opt.DisableMemo,
		fracture:  opt.Fracture,
		cache:     s.cache,
		disk:      s.disk,
		pool:      s.pool,
	}
	e.warnings = append(e.warnings, f.Warnings...)
	if s.diskWarn != "" {
		e.warnings = append(e.warnings, s.diskWarn)
	}
	// Store-level error counters are cumulative per handle (and the
	// session persists across Extracts), so this run's DiskErrors /
	// DiskPutErrors are a delta against a snapshot taken now.
	diskIO0 := s.diskIO()
	captureDiskErrors := func() {
		io := s.diskIO()
		e.counters.DiskErrors = int(io.GetErrors - diskIO0.GetErrors)
		e.counters.DiskPutErrors = int(io.PutErrors - diskIO0.PutErrors)
	}
	// Warnings past this point describe the extraction itself (not this
	// parse or this store handle); they are what a whole-result entry
	// persists and replays.
	preWarn := len(e.warnings)

	var diags diag.Set
	diags.SetLimits(opt.Diag)
	diags.Merge(&f.Diagnostics)

	top, _ := f.TopSymbol()
	t0 := time.Now()
	win, origin, ok := e.newTopWindow(top)
	if !ok {
		if !opt.Lenient {
			return nil, fmt.Errorf("hext: %w", guard.ErrNoGeometry)
		}
		// Fail-soft: nothing was salvageable (or the design is truly
		// empty); report it and return an empty netlist so the caller
		// still gets the diagnostics alongside a well-formed result.
		diags.Add(diag.New(diag.Warning, guard.StageHextPlan,
			"no-geometry", "design contains no geometry"))
		diags.Sort()
		b := s.pool.GetBuilder()
		nl, _ := b.Finish()
		s.pool.PutBuilder(b)
		s.last = f
		return &Result{Netlist: nl, Warnings: e.warnings, Diagnostics: diags}, nil
	}
	root, err := e.plan(win, 0)
	if err != nil {
		return nil, err
	}
	e.timing.FrontEnd = time.Since(t0)

	if e.flatNL != nil {
		// Whole-result hit: the final netlist, warnings and (lazily) the
		// window tree all come from one verified store entry.
		s.last = f
		captureDiskErrors()
		diags.Sort()
		return &Result{
			Netlist:     e.flatNL,
			Counters:    e.counters,
			Timing:      e.timing,
			Warnings:    append(e.warnings, e.flatWarns...),
			Diagnostics: diags,
			hier:        e.flatHier,
			hierStore:   e.disk,
			hierKey:     e.rootKey,
		}, nil
	}

	if err := e.execute(workers); err != nil {
		return nil, err
	}

	// Publish this run's results into the session memo, and collect
	// warnings in node-creation order — the serial engine's exact
	// order, whatever order the workers ran in.
	if !e.noMemo {
		for k, n := range e.nodes {
			if n.res != nil {
				e.memo[k] = n.res
			}
		}
	}
	for _, n := range e.nodeList {
		e.warnings = append(e.warnings, n.warnings...)
	}
	e.persistResults()

	t1 := time.Now()
	b := e.pool.GetBuilder()
	var nl *netlist.Netlist
	ferr := guard.Run(guard.StageHextFlatten, func() error {
		if err := guard.Inject(guard.StageHextFlatten); err != nil {
			return err
		}
		var cands []overlayCand
		e.flatten(root.res, origin, 0, b, workers, &cands)
		if ep := e.flatErr.Load(); ep != nil {
			// A forked flatten goroutine failed; its subtree is
			// incomplete, so the whole flatten is.
			return *ep
		}
		e.resolveOverlay(b, cands)
		nl, _ = b.Finish()
		return nil
	})
	if ferr != nil {
		return nil, ferr
	}
	e.timing.Flatten = time.Since(t1)
	for _, lb := range e.overlay {
		if !lb.matched {
			e.warnings = append(e.warnings,
				fmt.Sprintf("label %q at %v matches no conducting geometry", lb.name, lb.at))
		}
	}
	if e.cache != nil {
		_, e.counters.CacheBytes = e.cache.stats()
	}
	warnings := append(e.warnings, b.Warnings()...)
	e.persistFlat(root, nl, warnings[preWarn:])
	// Finish copied everything into nl and the warnings were appended
	// above, so the builder's arenas are free for the next Extract.
	e.pool.PutBuilder(b)
	s.last = f

	captureDiskErrors()
	diags.Sort()
	return &Result{
		Netlist:     nl,
		Counters:    e.counters,
		Timing:      e.timing,
		Warnings:    warnings,
		Diagnostics: diags,
		top:         root.res,
	}, nil
}

type env struct {
	ctx       context.Context
	flatErr   atomic.Pointer[error] // first forked-flatten failure
	session   *Session
	syms      map[int]*cif.Symbol
	bboxCache map[int]geom.Rect
	symHashes map[int]uint64
	memo      map[string]*winResult
	nodes     map[string]*dagNode
	nodeList  []*dagNode
	grid      int64
	limits    guard.Limits
	maxDepth  int
	maxLeaf   int
	noMemo    bool
	fracture  Fracture
	cache     *leafCache
	disk      *store.Store
	pool      *scan.Pool
	overlay   []*overlayLabel

	// rootKey is the top window's memo key (the content address of the
	// whole design); flatNL/flatWarns hold a whole-result disk hit, and
	// flatHier is its undecoded window-tree section for lazy hierarchical
	// emission. diskLoaded marks memo keys whose results were decoded
	// from the store this run, so persistResults never re-stats them.
	rootKey    string
	flatNL     *netlist.Netlist
	flatWarns  []string
	flatHier   []byte
	diskLoaded map[string]bool

	counters Counters
	timing   Timing
	warnings []string
}

func (e *env) nextID() int {
	e.session.ids++
	return e.session.ids
}

// plan is the front end: it subdivides windows exactly like the old
// recursive engine, but instead of extracting as it goes it records
// the work as a DAG of leaf and compose nodes for execute to run.
// Node ids and list order follow the recursion's post-order, so serial
// execution reproduces the old engine's ids, warnings and wirelist
// byte-for-byte. Memo answers — from this run (e.nodes) or a previous
// Extract in the session (e.memo) — become shared or pre-resolved
// nodes ("Each time a window is considered for sub-division, the
// front-end checks a table to see if the window was previously
// analyzed").
func (e *env) plan(win window, depth int) (*dagNode, error) {
	if depth > e.maxDepth {
		return nil, fmt.Errorf("hext: window recursion exceeded depth %d", e.maxDepth)
	}
	if err := guard.Ctx(e.ctx, guard.StageHextPlan); err != nil {
		return nil, err
	}
	if err := guard.Inject(guard.StageHextPlan); err != nil {
		return nil, err
	}
	var k string
	if !e.noMemo {
		k = e.key(win)
		if depth == 0 {
			e.rootKey = k
		}
		if n, ok := e.nodes[k]; ok {
			e.counters.MemoHits++
			return n, nil
		}
		if r, ok := e.memo[k]; ok {
			e.counters.MemoHits++
			e.counters.SessionHits++
			n := &dagNode{kind: nodeDone, res: r}
			e.nodes[k] = n
			return n, nil
		}
		// The top window first tries the whole-result tier: a hit skips
		// planning, execution and flattening outright.
		if depth == 0 && e.probeFlat(k) {
			return &dagNode{kind: nodeDone}, nil
		}
		if n, ok := e.probeDisk(k); ok {
			return n, nil
		}
	}
	e.counters.UniqueWindows++

	schedule := func(n *dagNode) *dagNode {
		n.id = e.nextID()
		e.nodeList = append(e.nodeList, n)
		return n
	}
	leaf := func() *dagNode {
		e.counters.FlatCalls++
		return schedule(&dagNode{kind: nodeLeaf, win: win})
	}

	var n *dagNode
	var err error
	geoOnly := !win.hasCalls()
	uncuttable := win.w < 2 && win.h < 2
	if geoOnly && (len(win.items) <= e.maxLeaf || uncuttable) {
		n = leaf()
	} else if axis, at, ok := e.chooseCut(win); ok {
		a, b := e.splitWindow(win, axis, at)
		// Guard against pathologically dense geometry: when a cut
		// duplicates so many straddling boxes that neither side gets
		// smaller, further cutting can never reach the leaf cap —
		// extract the window whole instead of recursing exponentially.
		if geoOnly && len(a.items) >= len(win.items) && len(b.items) >= len(win.items) {
			n = leaf()
		} else {
			var na, nb *dagNode
			if na, err = e.plan(a, depth+1); err != nil {
				return nil, err
			}
			if nb, err = e.plan(b, depth+1); err != nil {
				return nil, err
			}
			e.counters.ComposeCalls++
			n = schedule(&dagNode{
				kind: nodeComp, axis: axis, at: at, w: win.w, h: win.h,
				kids: [2]*dagNode{na, nb},
			})
		}
	} else if geoOnly {
		// Oversized but uncuttable geometry: extract it whole.
		n = leaf()
	} else {
		// No cut avoids the instances: expand one level and retry
		// (the disjoint transformation's recursion step).
		if n, err = e.plan(e.expandOne(win), depth+1); err != nil {
			return nil, err
		}
	}
	if !e.noMemo {
		e.nodes[k] = n
	}
	return n, nil
}

// winTreeMinInsts is the smallest window (in leaf instances) whose
// result tree is persisted whole; smaller windows are covered by the
// leaf-sweep tier, and their tree entries would cost more I/O than
// the compose they save.
const winTreeMinInsts = 2

// winTreeKey is the store key of a window's persisted result tree.
func winTreeKey(memoKey string) string { return "w:" + memoKey }

// sweepKey is the store key of a persisted leaf sweep.
func sweepKey(contentKey string) string { return "s:" + contentKey }

// flatKey is the store key of a design's persisted whole result: the
// flattened netlist, the run's warnings and the window tree, in one
// verified entry.
func flatKey(rootMemoKey string) string { return "f:" + rootMemoKey }

// encodeFlat frames the whole-result entry: the flat section (netlist
// + warnings) length-prefixed, followed by the window-tree section.
func encodeFlat(flat, tree []byte) []byte {
	out := binary.AppendUvarint(make([]byte, 0, 10+len(flat)+len(tree)), uint64(len(flat)))
	out = append(out, flat...)
	return append(out, tree...)
}

// decodeFlatFrame splits a whole-result entry into its two sections.
func decodeFlatFrame(payload []byte) (flat, tree []byte, err error) {
	n, w := binary.Uvarint(payload)
	if w <= 0 || n > uint64(len(payload)-w) {
		return nil, nil, errCodec
	}
	return payload[w : w+int(n)], payload[w+int(n):], nil
}

// probeFlat consults the whole-result tier for the design under root
// memo key k. On a hit the final netlist and warnings are decoded
// immediately; the window tree — embedded in the entry, or deferred to
// the root's own "w:" entry when the entry is slim — is only touched
// if the caller asks for hierarchical output.
func (e *env) probeFlat(k string) bool {
	if e.disk == nil {
		return false
	}
	// Plain Get, never GetBuf: flatHier retains the tree section —
	// a sub-slice of this payload — for lazy hierarchical emission, so
	// the bytes must not be recycled by a later read.
	payload, ok := e.disk.Get(flatKey(k))
	if !ok {
		e.counters.DiskMisses++
		return false
	}
	e.counters.DiskBytes += int64(len(payload))
	flat, tree, err := decodeFlatFrame(payload)
	if err == nil {
		// A slim entry defers its tree to the root's "w:" entry; if the
		// store has since lost that, the hit could not serve -hier, so
		// retire it and recompute (which rewrites both entries).
		if len(tree) == 0 && !e.disk.Has(winTreeKey(k)) {
			err = errCodec
		}
	}
	if err == nil {
		var nl *netlist.Netlist
		var warns []string
		nl, warns, _, err = decodeSweep(flat)
		if err == nil {
			e.counters.DiskHits++
			e.flatNL, e.flatWarns, e.flatHier = nl, warns, tree
			return true
		}
	}
	e.disk.Quarantine(flatKey(k))
	e.counters.DiskMisses++
	return false
}

// persistFlat writes the whole-result entry after a computed run, so
// the next process over the same design bytes skips extraction
// entirely.
func (e *env) persistFlat(root *dagNode, nl *netlist.Netlist, warns []string) {
	if e.disk == nil || e.noMemo || e.rootKey == "" || root.res == nil {
		return
	}
	fk := flatKey(e.rootKey)
	if e.disk.Has(fk) {
		return
	}
	// persistResults already stored the root's window tree under its
	// own "w:" entry for any non-trivial design; a slim entry defers to
	// it, keeping the warm-process read proportional to the netlist,
	// not the window tree. Tiny designs below winTreeMinInsts embed the
	// tree instead.
	var tree []byte
	if !e.disk.Has(winTreeKey(e.rootKey)) {
		rev := make(map[*winResult]string, len(e.nodes))
		for k, n := range e.nodes {
			if n.res != nil {
				rev[n.res] = k
			}
		}
		tree = encodeWinTree(nil, root.res, func(r *winResult) string { return rev[r] })
	}
	// The sweep section is encoded into the session scratch buffer;
	// encodeFlat copies it into the framed payload.
	e.session.encBuf = encodeSweep(e.session.encBuf, nl, warns, 0)
	payload := encodeFlat(e.session.encBuf, tree)
	if e.disk.Put(fk, payload) == nil {
		e.counters.DiskBytes += int64(len(payload))
	}
}

// probeDisk consults the persistent store for an already-extracted
// window tree under memo key k. A hit decodes the whole result DAG —
// grafting any subtrees the session already holds in memory — and
// enters it as a pre-resolved node, so neither planning nor the back
// end ever look inside the window again. Any failure (absent entry,
// damaged payload) is a miss; damaged entries are quarantined.
func (e *env) probeDisk(k string) (*dagNode, bool) {
	if e.disk == nil {
		return nil, false
	}
	// decodeWinTree copies everything it keeps, so the session read
	// buffer can host the payload and be reused by the next probe.
	payload, ok := e.disk.GetBuf(winTreeKey(k), &e.session.readBuf)
	if !ok {
		e.counters.DiskMisses++
		return nil, false
	}
	e.counters.DiskBytes += int64(len(payload))
	lookup := func(key string) (*winResult, bool) {
		if n, ok := e.nodes[key]; ok && n.res != nil {
			return n.res, true
		}
		r, ok := e.memo[key]
		return r, ok
	}
	adopt := func(key string, r *winResult) {
		e.markDiskLoaded(key)
		if _, ok := e.nodes[key]; !ok {
			e.nodes[key] = &dagNode{kind: nodeDone, res: r}
		}
	}
	r, err := decodeWinTree(payload, lookup, adopt, e.nextID)
	if err != nil {
		// Verified bytes that fail to decode are a schema change or a
		// deliberate corruption; either way retire the entry so it is
		// not re-read every run.
		e.disk.Quarantine(winTreeKey(k))
		e.counters.DiskMisses++
		return nil, false
	}
	e.counters.DiskHits++
	e.markDiskLoaded(k)
	n := &dagNode{kind: nodeDone, res: r}
	e.nodes[k] = n
	return n, true
}

// markDiskLoaded records that key's result came from the store this
// run, so persistResults skips it without a stat.
func (e *env) markDiskLoaded(key string) {
	if e.diskLoaded == nil {
		e.diskLoaded = map[string]bool{}
	}
	e.diskLoaded[key] = true
}

// persistResults writes this run's window trees to the persistent
// store, best-effort: cancellation stops the loop, write errors are
// ignored (the next run recomputes), and entries already on disk are
// skipped with a stat. Keys are embedded per node so future decodes
// can graft shared subtrees.
func (e *env) persistResults() {
	if e.disk == nil || e.noMemo {
		return
	}
	rev := make(map[*winResult]string, len(e.nodes))
	for k, n := range e.nodes {
		if n.res != nil {
			rev[n.res] = k
		}
	}
	keyOf := func(r *winResult) string { return rev[r] }
	for k, n := range e.nodes {
		if n.res == nil || n.res.insts < winTreeMinInsts || e.diskLoaded[k] {
			continue
		}
		if guard.Ctx(e.ctx, guard.StageHextPlan) != nil {
			return
		}
		dk := winTreeKey(k)
		if e.disk.Has(dk) {
			continue
		}
		e.session.encBuf = encodeWinTree(e.session.encBuf, n.res, keyOf)
		if e.disk.Put(dk, e.session.encBuf) == nil {
			e.counters.DiskBytes += int64(len(e.session.encBuf))
		}
	}
}

// overlayCand is one leaf instance that could resolve a top-level
// overlay label: the label's point falls inside the instance and hits
// conducting geometry there. Candidates are collected during
// flattening and resolved afterwards — the instance with the smallest
// DFS sequence number wins, which is exactly the net the serial
// first-match walk used to pick, but computable in any order.
type overlayCand struct {
	overlay int   // index into env.overlay
	seq     int64 // leaf instance's DFS sequence number
	net     int32 // builder net element carrying the label
}

// parallelFlattenMin is the smallest subtree (in leaf instances) worth
// forking a goroutine and a fresh builder for.
const parallelFlattenMin = 64

// flatten instantiates the window DAG into the builder: leaf windows
// contribute their nets and device accumulators; composed windows
// apply their seam equivalences. Returns the instance's local-net and
// local-partial handles. With workers > 1, large composed windows
// flatten their children into separate builders concurrently and
// splice them with Absorb — element allocation order matches the
// serial recursion exactly, so the final netlist is byte-identical.
func (e *env) flatten(r *winResult, off geom.Point, seq int64, b *build.Builder,
	workers int, cands *[]overlayCand) ([]int32, []int32) {
	// Cancellation unwinds the recursion as an abort-panic: the
	// StageHextFlatten guard.Run in ExtractContext converts it back to
	// the original error. Threading an error return through every frame
	// (and both fork arms) is not worth it for a cooperative check.
	if err := guard.Ctx(e.ctx, guard.StageHextFlatten); err != nil {
		guard.Abort(err)
	}
	if r.leaf != nil {
		return e.flattenLeaf(r, off, seq, b, cands)
	}

	c := r.comp
	var kn, kp [2][]int32
	if workers > 1 && r.insts >= parallelFlattenMin {
		half := workers / 2
		b1 := e.pool.GetBuilder()
		var cands1 []overlayCand
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The forked arm needs its own recover wrapper: a panic
			// here would otherwise crash the process, not unwind the
			// extraction. The first failure is recorded and re-raised
			// on the main goroutine after the join.
			if err := guard.Run(guard.StageHextFlatten, func() error {
				kn[1], kp[1] = e.flatten(c.kids[1], off.Add(c.at[1]), seq+c.kids[0].insts,
					b1, workers-half, &cands1)
				return nil
			}); err != nil {
				ep := err
				e.flatErr.CompareAndSwap(nil, &ep)
			}
		}()
		kn[0], kp[0] = e.flatten(c.kids[0], off.Add(c.at[0]), seq, b, half, cands)
		wg.Wait()
		if ep := e.flatErr.Load(); ep != nil {
			guard.Abort(*ep)
		}
		netOff, devOff := b.Absorb(b1)
		for i := range kn[1] {
			kn[1][i] += netOff
		}
		for i := range kp[1] {
			kp[1][i] += devOff
		}
		for i := range cands1 {
			cands1[i].net += netOff
		}
		*cands = append(*cands, cands1...)
		// Absorb copied (not aliased) every arena out of b1.
		e.pool.PutBuilder(b1)
	} else {
		kn[0], kp[0] = e.flatten(c.kids[0], off.Add(c.at[0]), seq, b, 1, cands)
		kn[1], kp[1] = e.flatten(c.kids[1], off.Add(c.at[1]), seq+c.kids[0].insts, b, 1, cands)
	}

	for _, eq := range c.netEquivs {
		b.UnionNets(kn[eq[0].child][eq[0].idx], kn[eq[1].child][eq[1].idx])
	}
	for _, eq := range c.partEquivs {
		b.UnionDevs(kp[eq[0].child][eq[0].idx], kp[eq[1].child][eq[1].idx])
	}
	for _, pt := range c.partTerms {
		b.AddTerm(kp[pt.part.child][pt.part.idx], kn[pt.net.child][pt.net.idx], pt.edge)
	}
	nets := make([]int32, len(c.parentNets))
	for i, rf := range c.parentNets {
		nets[i] = kn[rf.child][rf.idx]
	}
	parts := make([]int32, len(c.parentParts))
	for i, rf := range c.parentParts {
		parts[i] = kp[rf.child][rf.idx]
	}
	return nets, parts
}

// flattenLeaf replays one leaf instance into the builder. The cached
// netlist is in anchored coordinates; adding the anchor to the
// placement offset restores the absolute frame.
func (e *env) flattenLeaf(r *winResult, off geom.Point, seq int64, b *build.Builder,
	cands *[]overlayCand) ([]int32, []int32) {
	nl := r.leaf.nl
	eff := off.Add(r.leaf.anchor)
	nets := make([]int32, len(nl.Nets))
	for i := range nl.Nets {
		nets[i] = b.NewNet(nl.Nets[i].Location.Add(eff))
		for _, nm := range nl.Nets[i].Names {
			b.NameNet(nets[i], nm)
		}
	}
	// Overlay labels falling in this instance's region become
	// candidates; resolveOverlay picks the winner per label.
	region := geom.Rect{XMin: off.X, YMin: off.Y, XMax: off.X + r.w, YMax: off.Y + r.h}
	for oi, lb := range e.overlay {
		if region.Contains(lb.at) {
			if idx, ok := labelNet(nl, lb.at.Sub(eff), lb); ok {
				*cands = append(*cands, overlayCand{overlay: oi, seq: seq, net: nets[idx]})
			}
		}
	}
	partSlot := make(map[int]int, len(r.leaf.partDevs))
	for slot, di := range r.leaf.partDevs {
		partSlot[di] = slot
	}
	parts := make([]int32, len(r.leaf.partDevs))
	for i := range nl.Devices {
		d := &nl.Devices[i]
		dv := b.NewDev()
		bbox := geom.BBoxOf(d.Geometry).Translate(eff)
		b.AddDeviceFacts(dv, d.Area, d.ImplArea, bbox)
		b.AddGate(dv, nets[d.Gate])
		for _, t := range d.Terminals {
			b.AddTerm(dv, nets[t.Net], t.Edge)
		}
		if slot, ok := partSlot[i]; ok {
			parts[slot] = dv
		}
	}
	return nets, parts
}

// resolveOverlay applies the collected label candidates: for each
// overlay label, the candidate with the smallest DFS sequence number
// names its net (the serial walk's first match).
func (e *env) resolveOverlay(b *build.Builder, cands []overlayCand) {
	if len(cands) == 0 {
		return
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].overlay != cands[j].overlay {
			return cands[i].overlay < cands[j].overlay
		}
		return cands[i].seq < cands[j].seq
	})
	for i := 0; i < len(cands); {
		j := i
		for j < len(cands) && cands[j].overlay == cands[i].overlay {
			j++
		}
		lb := e.overlay[cands[i].overlay]
		b.NameNet(cands[i].net, lb.name)
		lb.matched = true
		i = j
	}
}
