package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"ace/internal/cif"
	"ace/internal/extract"
	"ace/internal/gen"
	"ace/internal/hext"
	"ace/internal/vfs"
	"ace/internal/wirelist"
)

// hierWorkload runs three chips through hext.Session. A quarter of the
// run repeats passes of cold extractions with the default options,
// which keep every cache in memory, each followed by a seeded one-cell
// edit and its undo on the same session. Then, for the rest of the run,
// it reopens each chip: a new Session with its CacheDir on a store that
// a cold extraction populated, which reads the store.
//
// The store writes one fsynced file per entry, thousands per cold
// extraction. On a disk mounted with online discard, unlinking a synced
// file can cost 50 ms, so a store can be neither rewritten nor deleted
// on every run. Each chip's store is therefore written once, by the
// first run of a benchmark binary, in the untimed reference step, and
// every later run reopens it: the disk use is bounded by one store per
// chip and binary (about 4.7k files and 45 MB). The edits do not touch
// the disk, as each would add up to a thousand files for good.
type hierWorkload struct {
	chips []hierChip
}

type hierChip struct {
	name  string
	src   []byte
	boxes int // flat box count, the unit of hier_cold_boxes_per_s
	edits []hierEdit
	want  []byte // wirelist of a cold hext.Extract of the design
	store string // the populated store the reopens read
}

// hierEdit drops one box from a leaf symbol; undo restores it.
type hierEdit struct {
	edit, undo hext.Edit
	want       []byte // wirelist of a cold hext.Extract of the edited design
}

var hierChipNames = []string{"testram", "schip2", "riscb"}

func (w *hierWorkload) prepare(c *config) error {
	scale := 0.25
	if c.tiny {
		scale = 0.01
	}
	rng := rand.New(rand.NewSource(c.seed))
	w.chips = w.chips[:0]
	for _, name := range hierChipNames {
		ch, _ := gen.ChipByName(name)
		var buf bytes.Buffer
		if err := cif.Write(&buf, ch.Build(scale).File); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		f, err := cif.ParseBytes(buf.Bytes())
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		hc := hierChip{name: name, src: buf.Bytes()}
		// Every leaf symbol gets one edit, of a seeded box: which symbols
		// are edited sets most of the edits' cost, and this keeps it the
		// same on every seed.
		leaves := leafSymbols(f)
		if len(leaves) == 0 {
			return fmt.Errorf("%s: no leaf symbol to edit", name)
		}
		for _, id := range leaves {
			sym := f.Symbols[id]
			boxes := boxIndexes(sym.Items)
			drop := boxes[rng.Intn(len(boxes))]
			items := append(append([]cif.Item(nil), sym.Items[:drop]...), sym.Items[drop+1:]...)
			hc.edits = append(hc.edits, hierEdit{
				edit: hext.Edit{SymbolID: sym.ID, Items: items},
				undo: hext.Edit{SymbolID: sym.ID, Items: sym.Items},
			})
		}
		w.chips = append(w.chips, hc)
	}
	return nil
}

// leafSymbols returns, in id order, the symbols that call nothing and
// hold at least two boxes.
func leafSymbols(f *cif.File) []int {
	var ids []int
	for id, s := range f.Symbols {
		leaf := len(boxIndexes(s.Items)) >= 2
		for _, it := range s.Items {
			leaf = leaf && it.Kind != cif.ItemCall
		}
		if leaf {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

func boxIndexes(items []cif.Item) []int {
	var idx []int
	for i, it := range items {
		if it.Kind == cif.ItemBox {
			idx = append(idx, i)
		}
	}
	return idx
}

// withEdit returns a copy of f with e applied; f is not modified.
func withEdit(f *cif.File, e hext.Edit) *cif.File {
	g := *f
	g.Symbols = make(map[int]*cif.Symbol, len(f.Symbols))
	for id, s := range f.Symbols {
		g.Symbols[id] = s
	}
	old := f.Symbols[e.SymbolID]
	g.Symbols[e.SymbolID] = &cif.Symbol{ID: old.ID, Name: old.Name, Items: e.Items}
	return &g
}

// coldWirelist is the reference: a cold hext.Extract with no cache dir.
func coldWirelist(f *cif.File) ([]byte, error) {
	res, err := hext.Extract(f, hext.Options{})
	if err != nil {
		return nil, err
	}
	return wirelist.AppendTo(nil, res.Netlist, wirelist.Options{})
}

func (w *hierWorkload) reference(c *config) error {
	exe, err := executableSum()
	if err != nil {
		return err
	}
	for i := range w.chips {
		ch := &w.chips[i]
		f, err := cif.ParseBytes(ch.src)
		if err != nil {
			return err
		}
		if ch.want, err = coldWirelist(f); err != nil {
			return fmt.Errorf("%s: %w", ch.name, err)
		}
		flat, err := extract.Reader(bytes.NewReader(ch.src), extract.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", ch.name, err)
		}
		ch.boxes = flat.Counters.BoxesIn
		for k := range ch.edits {
			e := &ch.edits[k]
			if e.want, err = coldWirelist(withEdit(f, e.edit)); err != nil {
				return fmt.Errorf("%s edit %d: %w", ch.name, k, err)
			}
			if c.wrong {
				e.want[len(e.want)/2] ^= 1
			}
		}
		if c.wrong {
			ch.want[len(ch.want)/2] ^= 1
		}
		key := sha256.Sum256(append(exe[:], ch.src...))
		ch.store = filepath.Join(c.storeRoot, fmt.Sprintf("%s-%x", ch.name, key[:8]))
		if err := populate(c.storeRoot, ch.store, f); err != nil {
			return fmt.Errorf("%s: populate store: %w", ch.name, err)
		}
	}
	return nil
}

// executableSum hashes the running binary, so that a store written by
// one build of the program is never read by another.
func executableSum() ([sha256.Size]byte, error) {
	path, err := os.Executable()
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	b, err := os.ReadFile(path)
	return sha256.Sum256(b), err
}

// populated is what a store's cold extraction wrote, as the timing
// filesystem saw it. It is kept beside the store, in dir+".json", for
// the traced runs that reopen the store later.
type populated struct {
	WriteNs, SyncNs, RenameNs, CreateNs int64
	Syncs, BytesWritten                 int64
}

// populate makes dir a store holding a cold extraction of f, unless it
// exists. The store is written in a temporary directory beside dir and
// renamed into place, so a dir that exists is complete.
func populate(root, dir string, f *cif.File) error {
	if _, err := os.Stat(dir); err == nil {
		return nil
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(root, ".new-")
	if err != nil {
		return err
	}
	tfs := newTimingFS(vfs.OS)
	res, err := hext.NewSession(hext.Options{CacheDir: tmp, CacheFS: tfs}).Extract(f)
	if err != nil {
		return err
	}
	if n := res.Counters.DiskErrors + res.Counters.DiskPutErrors; n > 0 {
		return fmt.Errorf("%d disk errors", n)
	}
	io := tfs.st.snap()
	raw, err := json.Marshal(populated{io.writeNs, io.syncNs, io.renameNs, io.openNs, io.syncs, io.bytesWritten})
	if err != nil {
		return err
	}
	if err := os.WriteFile(dir+".json", raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, dir)
}

func (w *hierWorkload) close() {}

// hierOp is one timed operation of the workload.
type hierOp struct {
	kind  string // cold, edit, undo or reopen
	chip  *hierChip
	total time.Duration // the operation as a user sees it
	span  time.Duration // the hext call alone
	md    memDelta      // heap delta of the hext call
	res   *hext.Result
}

// hierRun runs the workload's operations and checks their results.
// fsys is the cache filesystem of the reopens (nil: the default);
// traced adds heap deltas around each hext call.
type hierRun struct {
	w      *hierWorkload
	r      *report
	fsys   vfs.FS
	traced bool
	out    []byte
}

// call runs one operation: it parses src when given (a new process
// would), then makes the hext call, and checks the wirelist. A disk
// error fails the operation too: the store fails open, so it would
// otherwise pass as a slower path.
func (h *hierRun) call(kind string, ch *hierChip, src []byte, want []byte, fn func(f *cif.File) (*hext.Result, error)) hierOp {
	op := hierOp{kind: kind, chip: ch}
	t0 := time.Now()
	var f *cif.File
	var err error
	if src != nil {
		f, err = cif.ParseBytes(src)
	}
	if err == nil {
		var m0 memSnap
		if h.traced {
			m0 = readMem()
		}
		t1 := time.Now()
		op.res, err = fn(f)
		op.span = time.Since(t1)
		if h.traced {
			op.md = readMem().since(m0)
		}
	}
	op.total = time.Since(t0)
	what := ch.name + " " + kind
	if err == nil {
		if n := op.res.Counters.DiskErrors + op.res.Counters.DiskPutErrors; n > 0 {
			err = fmt.Errorf("%d disk errors", n)
		}
	}
	if err != nil {
		h.r.check(false, "%s: %v", what, err)
		op.res = nil
		return op
	}
	h.out, err = wirelist.AppendTo(h.out[:0], op.res.Netlist, wirelist.Options{})
	h.r.check(err == nil && bytes.Equal(h.out, want), "%s: wirelist differs from cold hext.Extract", what)
	return op
}

// pass extracts every chip cold, in a seeded order, with the default
// options (no disk cache), and then applies the chip's pass-th edit,
// in turn, to the same session, followed by its undo. It returns the
// cold extractions and the edits and undos apart.
func (h *hierRun) pass(rng *rand.Rand, pass int) (cold, edits []hierOp) {
	for _, i := range rng.Perm(len(h.w.chips)) {
		ch := &h.w.chips[i]
		// Untimed: each session starts from a collected heap whose free
		// memory is returned to the OS, so that the peak RSS is that of
		// one session, not of a heap the collector's pacing left mapped.
		debug.FreeOSMemory()
		sess := hext.NewSession(hext.Options{})
		op := h.call("cold", ch, ch.src, ch.want, sess.Extract)
		if op.res == nil {
			continue
		}
		cold = append(cold, op)
		e := ch.edits[pass%len(ch.edits)]
		for _, step := range []struct {
			kind string
			edit hext.Edit
			want []byte
		}{{"edit", e.edit, e.want}, {"undo", e.undo, ch.want}} {
			op := h.call(step.kind, ch, nil, step.want, func(*cif.File) (*hext.Result, error) { return sess.Apply(step.edit) })
			if op.res != nil {
				edits = append(edits, op)
			}
		}
	}
	return cold, edits
}

// reopen opens a new Session on a chip's populated store.
func (h *hierRun) reopen(ch *hierChip) hierOp {
	opt := hext.Options{CacheDir: ch.store, CacheFS: h.fsys}
	return h.call("reopen", ch, ch.src, ch.want, func(f *cif.File) (*hext.Result, error) {
		return hext.NewSession(opt).Extract(f)
	})
}

// opStats sorts operations by kind.
type opStats struct {
	editMs, undoMs, reopenMs []float64
}

func (s *opStats) add(op hierOp) {
	if op.res == nil {
		return
	}
	switch op.kind {
	case "edit":
		s.editMs = append(s.editMs, ms(op.total))
	case "undo":
		s.undoMs = append(s.undoMs, ms(op.total))
	case "reopen":
		s.reopenMs = append(s.reopenMs, ms(op.total))
	}
}

// coldRate is the boxes per second of a set of cold extractions.
func coldRate(ops []hierOp) float64 {
	var boxes, sec float64
	for _, op := range ops {
		boxes += float64(op.chip.boxes)
		sec += op.total.Seconds()
	}
	return boxes / sec
}

// coldShare is the percentage of a run spent on cold extractions and
// edits.
const coldShare = 25

func (w *hierWorkload) run(c *config, r *report) error {
	rng := rand.New(rand.NewSource(c.seed))
	start := time.Now()
	h := &hierRun{w: w, r: r}
	var cold, passRSS []float64
	var s opStats
	for pass := 0; pass < 3 || time.Since(start) < c.dur*coldShare/100; pass++ {
		debug.FreeOSMemory() // before the reset, which takes the RSS of now
		resetPeakRSS()
		ops, edits := h.pass(rng, pass)
		passRSS = append(passRSS, float64(peakRSSBytes())/(1<<20))
		cold = append(cold, coldRate(ops))
		for _, op := range edits {
			s.add(op)
		}
	}
	debug.FreeOSMemory()
	resetPeakRSS()
	for once := true; once || time.Since(start) < c.dur; once = false {
		for _, i := range rng.Perm(len(w.chips)) {
			s.add(h.reopen(&w.chips[i]))
		}
	}
	// The passes' peak is the median of their own peaks: on a busy host
	// the collector now and then falls behind in one pass and maps a
	// third more, which would otherwise set the run's peak.
	rss := max(median(passRSS), float64(peakRSSBytes())/(1<<20))
	r.e2e("peak_rss_mib", rss, "MiB")
	r.named("peak_rss_mib", rss, "MiB", len(passRSS)+1)
	r.named("peak_rss_max_pass_mib", percentile(passRSS, 100), "MiB", len(passRSS))
	r.e2e(mThroughput, median(cold), "1/s")
	r.named("hier_cold_boxes_per_s", median(cold), "boxes/s", len(cold))
	r.latency("hier_warm", s.reopenMs, 90)
	r.named("hier_edit_p50_ms", median(s.editMs), "ms", len(s.editMs))
	// A run has too few edits for a p90 with ten samples beyond it.
	r.named("hier_edit_max_ms", percentile(s.editMs, 100), "ms", len(s.editMs))
	r.named("hier_undo_p50_ms", median(s.undoMs), "ms", len(s.undoMs))
	return nil
}

// traced runs one pass of cold extractions and edits with heap deltas,
// and sums the program's own Timing and Counters over them. The reopens
// alternate untraced and traced (on the timing filesystem), for the
// read side of the store and the tracing overhead. The write side is
// the cold extraction that populated the stores.
func (w *hierWorkload) traced(c *config, r *report) error {
	rng := rand.New(rand.NewSource(c.seed))
	start := time.Now()
	tfs := newTimingFS(vfs.OS)
	h := &hierRun{w: w, r: r, fsys: tfs, traced: true}
	ops, edits := h.pass(rng, 0)
	ops = append(ops, edits...)
	debug.FreeOSMemory()

	// Reopens: untraced and traced in turn over the same stores.
	plain := &hierRun{w: w, r: r}
	var plainMs, tracedMs, readMs, openMs, readBytes []float64
	for once := true; once || time.Since(start) < c.dur; once = false {
		for _, i := range rng.Perm(len(w.chips)) {
			ch := &w.chips[i]
			if op := plain.reopen(ch); op.res != nil {
				plainMs = append(plainMs, ms(op.total))
			}
			io0 := tfs.st.snap()
			if op := h.reopen(ch); op.res != nil {
				tracedMs = append(tracedMs, ms(op.total))
				io := tfs.st.snap().sub(io0)
				readMs = append(readMs, nsToMs(io.readNs))
				openMs = append(openMs, nsToMs(io.openNs))
				readBytes = append(readBytes, float64(io.bytesRead))
			}
		}
	}

	var write populated
	for _, ch := range w.chips {
		raw, err := os.ReadFile(ch.store + ".json")
		var p populated
		if err == nil {
			err = json.Unmarshal(raw, &p)
		}
		if err != nil {
			return fmt.Errorf("%s: store population: %w", ch.name, err)
		}
		write.WriteNs += p.WriteNs
		write.SyncNs += p.SyncNs
		write.RenameNs += p.RenameNs
		write.CreateNs += p.CreateNs
		write.Syncs += p.Syncs
		write.BytesWritten += p.BytesWritten
	}
	var tm hext.Timing
	var cn hext.Counters
	var spans, unattr time.Duration
	var allocBytes float64
	for _, op := range ops {
		if op.res == nil {
			continue
		}
		t, k := op.res.Timing, op.res.Counters
		tm.FrontEnd += t.FrontEnd
		tm.Flat += t.Flat
		tm.Compose += t.Compose
		tm.Flatten += t.Flatten
		unattr += op.span - t.Total()
		spans += op.span
		allocBytes += op.md.bytes
		cn.LeafSweeps += k.LeafSweeps
		cn.MemoHits += k.MemoHits
		cn.SessionHits += k.SessionHits
		cn.CacheHits += k.CacheHits
		cn.FlatCalls += k.FlatCalls
	}

	r.layer("hext.frontend_ms", ms(tm.FrontEnd), "ms")
	r.layer("hext.leaf_ms", ms(tm.Flat), "ms")
	r.layer("hext.compose_ms", ms(tm.Compose), "ms")
	r.layer("hext.flatten_ms", ms(tm.Flatten), "ms")
	r.layer("hext.unattributed_ms", ms(unattr), "ms")
	r.layer("hext.alloc_bytes", allocBytes, "bytes")
	r.layer("hext.leaf_sweeps", float64(cn.LeafSweeps), "count")
	r.layer("hext.memo_hits", float64(cn.MemoHits), "count")
	r.layer("hext.session_hits", float64(cn.SessionHits), "count")
	r.layer("hext.flat_calls", float64(cn.FlatCalls), "count")
	if cn.FlatCalls > 0 {
		r.layer("hext.cache_hit_ratio", float64(cn.CacheHits)/float64(cn.FlatCalls), "ratio")
	}
	r.layer("store.write_ms", nsToMs(write.WriteNs), "ms")
	r.layer("store.sync_ms", nsToMs(write.SyncNs), "ms")
	r.layer("store.rename_ms", nsToMs(write.RenameNs), "ms")
	r.layer("store.syncs", float64(write.Syncs), "count")
	r.layer("store.bytes_written", float64(write.BytesWritten), "bytes")
	r.layer("store.create_ms", nsToMs(write.CreateNs), "ms") // CreateTemp, Stat and ReadDir while writing
	r.layer("store.read_ms", median(readMs), "ms")
	r.layer("store.bytes_read", median(readBytes), "bytes")
	r.layer("store.open_ms", median(openMs), "ms")
	r.layer("trace.overhead_ratio", median(tracedMs)/median(plainMs)-1, "ratio")
	if spans > 0 {
		r.layer("trace.unattributed_ratio", float64(unattr)/float64(spans), "ratio")
	}
	return nil
}
