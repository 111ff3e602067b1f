package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ace/internal/cif"
	"ace/internal/extract"
	"ace/internal/gen"
	"ace/internal/serve"
	"ace/internal/wirelist"
)

// serveWorkload drives an in-process serve.Server on a loopback
// listener with an open loop: requests are sent on a fixed schedule
// over at most two connections, whether or not earlier ones have
// finished, and each is timed from when it was due. The seeded mix is
// ~60% fresh designs (result-cache misses), ~30% repeats from a small
// hot set (hits) and ~10% truncated uploads (422 diagnostics).
type serveWorkload struct {
	fresh, hot []serveDesign
	mix        []serveReq // the seeded request sequence, cycled
	handler    *timedHandler
	hs         *http.Server
	served     chan struct{}
	url        string
	client     *http.Client
}

type serveDesign struct {
	src  []byte
	want []byte // library wirelist of src
}

type serveKind int8

const (
	reqFresh serveKind = iota
	reqHot
	reqTruncated
)

type serveReq struct {
	kind   serveKind
	design int // index into fresh or hot
	cut    int // truncated: bytes kept
}

const (
	freshDesigns = 32
	hotDesigns   = 8
	mixLen       = 4000

	// serveLimit is the latency limit on p99 that defines serve_max_rps.
	serveLimit = 50 * time.Millisecond
	// nominalStep is the ladder step (148 requests per second) at which
	// serve_p50_ms and serve_p99_ms are measured. It is fixed, so that
	// every version is measured at the same offered load. On a 2-vCPU
	// host the closed-loop phase sustained 280-400 requests per second
	// (serve_saturated_rps, 10 seeds), so this rate keeps the server
	// about 40-50% busy: requests queue behind each other now and then,
	// and p99 shows that queueing, without the overload that the ladder
	// probes near serve_max_rps reach. Each run reports the ratio as
	// serve_nominal_load.
	nominalStep = 21
	// ladderStart is the step (288 requests per second) the search for
	// serve_max_rps starts from; ladderGallop is its first stride.
	ladderStart  = 28
	ladderGallop = 3
)

// ladder is the fixed rate ladder serve_max_rps is found on: 10%
// steps from 20 requests per second.
func ladder(k int) float64 { return 20 * math.Pow(1.1, float64(k)) }

const ladderSteps = 50 // up to ~2350 requests per second

// serveConns is the number of connections and sender goroutines: two,
// or fewer on a smaller host.
func serveConns() int { return min(2, runtime.NumCPU()) }

func (w *serveWorkload) prepare(c *config) error {
	rng := rand.New(rand.NewSource(c.seed))
	lo, hi := 300, 3000
	if c.tiny {
		lo, hi = 20, 60
	}
	// Sizes are stratified over [lo, hi] and the mix is built from
	// shuffled blocks of exact composition, so that the work per request
	// hardly depends on the seed.
	nDesigns := freshDesigns + hotDesigns
	sizes := rng.Perm(nDesigns)
	w.fresh, w.hot = w.fresh[:0], w.hot[:0]
	for i := 0; i < nDesigns; i++ {
		devices := lo + int((float64(sizes[i])+rng.Float64())*float64(hi-lo)/float64(nDesigns))
		wl := gen.Irregular(max(1, devices/3), rng.Int63())
		var buf bytes.Buffer
		if err := cif.Write(&buf, wl.File); err != nil {
			return err
		}
		if i < freshDesigns {
			w.fresh = append(w.fresh, serveDesign{src: buf.Bytes()})
		} else {
			w.hot = append(w.hot, serveDesign{src: buf.Bytes()})
		}
	}
	w.mix = w.mix[:0]
	var freshOrder, hotOrder []int
	next := func(order *[]int, n int) int {
		if len(*order) == 0 {
			*order = rng.Perm(n)
		}
		d := (*order)[0]
		*order = (*order)[1:]
		return d
	}
	block := []serveKind{reqFresh, reqFresh, reqFresh, reqFresh, reqFresh, reqFresh, reqHot, reqHot, reqHot, reqTruncated}
	for len(w.mix) < mixLen {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			q := serveReq{kind: k}
			switch k {
			case reqHot:
				q.design = next(&hotOrder, len(w.hot))
			default:
				q.design = next(&freshOrder, len(w.fresh))
				if k == reqTruncated {
					q.cut = truncation(w.fresh[q.design].src, rng)
				}
			}
			w.mix = append(w.mix, q)
		}
	}

	srv, err := serve.New(serve.Options{})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.handler = &timedHandler{inner: srv}
	w.hs = &http.Server{Handler: w.handler}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: serveConns(), MaxIdleConnsPerHost: serveConns(), DisableCompression: true,
	}}
	return nil
}

// truncation picks where to cut src: inside a symbol call after a
// seeded point, so the upload ends in an unterminated command.
func truncation(src []byte, rng *rand.Rand) int {
	from := len(src)/4 + rng.Intn(len(src)/2+1)
	if i := bytes.Index(src[from:], []byte("C ")); i >= 0 {
		return from + i + 3
	}
	return from
}

func (w *serveWorkload) reference(c *config) error {
	for _, set := range [][]serveDesign{w.fresh, w.hot} {
		for i := range set {
			res, err := extract.Reader(bytes.NewReader(set[i].src), extract.Options{})
			if err != nil {
				return err
			}
			res.Netlist.Name = "upload" // the server's name for a raw upload
			if set[i].want, err = wirelist.AppendTo(nil, res.Netlist, wirelist.Options{}); err != nil {
				return err
			}
			if c.wrong {
				set[i].want[len(set[i].want)/2] ^= 1
			}
		}
	}
	return nil
}

func (w *serveWorkload) close() {
	if w.hs == nil {
		return
	}
	_ = w.hs.Close()
	<-w.served
	w.client.CloseIdleConnections()
	w.hs = nil
}

// timedHandler adds up the time spent in the server's ServeHTTP.
type timedHandler struct {
	inner http.Handler
	on    atomic.Bool
	mu    sync.Mutex
	spans []float64
}

func (h *timedHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.inner.ServeHTTP(rw, r)
		return
	}
	t0 := time.Now()
	h.inner.ServeHTTP(rw, r)
	d := ms(time.Since(t0))
	h.mu.Lock()
	h.spans = append(h.spans, d)
	h.mu.Unlock()
}

// body builds request seq's upload. The leading comment makes every
// fresh and truncated upload distinct bytes, so the result cache
// misses; hot uploads repeat exactly.
func (w *serveWorkload) body(seq int64, q serveReq) ([]byte, string) {
	switch q.kind {
	case reqHot:
		return w.hot[q.design].src, "/extract"
	case reqTruncated:
		b := append([]byte("(upload "+strconv.FormatInt(seq, 10)+");\n"), w.fresh[q.design].src[:q.cut]...)
		return b, "/extract?lenient=1"
	}
	return append([]byte("(upload "+strconv.FormatInt(seq, 10)+");\n"), w.fresh[q.design].src...), "/extract"
}

// shot is one scheduled request.
type shot struct {
	seq int64
	due time.Time
}

// loadResult is what one open-loop phase measured.
type loadResult struct {
	latMs, lateMs, clientMs []float64 // of the requests that succeeded
	failed, sent            int
	drain                   time.Duration // from the last due time until every request finished
	elapsed                 time.Duration
	gc                      memDelta // GC cycles and pauses during the phase
}

// openLoop sends n requests at rate per second starting with sequence
// number seq0, each due at start + i/rate, and waits for all of them.
// Every response is checked; a wrong byte, an unexpected status or a
// transport error fails the request. Failed requests stay out of the
// latencies; passes counts them as missing the latency limit.
func (w *serveWorkload) openLoop(r *report, seq0 int64, rate float64, n int) loadResult {
	var res loadResult
	var mu sync.Mutex
	jobs := make(chan shot, n) // sized to the number of sends
	var wg sync.WaitGroup
	for k := 0; k < serveConns(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				q := w.mix[int(s.seq%int64(len(w.mix)))]
				body, path := w.body(s.seq, q)
				t0 := time.Now()
				err := w.send(path, body, q)
				end := time.Now()
				mu.Lock()
				r.checkErr(err, "request")
				if err != nil {
					res.failed++
				} else {
					res.latMs = append(res.latMs, ms(end.Sub(s.due)))
					res.clientMs = append(res.clientMs, ms(end.Sub(t0)))
				}
				mu.Unlock()
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	m0 := readMem()
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.lateMs = append(res.lateMs, ms(time.Since(due)))
		jobs <- shot{seq: seq0 + int64(i), due: due}
	}
	last := time.Now()
	close(jobs)
	wg.Wait()
	res.drain = time.Since(last)
	res.elapsed = time.Since(start)
	res.gc = readMem().since(m0)
	res.sent = n
	return res
}

func (w *serveWorkload) design(q serveReq) *serveDesign {
	if q.kind == reqHot {
		return &w.hot[q.design]
	}
	return &w.fresh[q.design]
}

// send posts one upload and checks the response: a byte-identical
// wirelist for a whole design, a 422 problem document with
// diagnostics for a truncated one.
func (w *serveWorkload) send(path string, body []byte, q serveReq) error {
	resp, err := w.client.Post(w.url+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if q.kind == reqTruncated {
		var p serve.Problem
		if resp.StatusCode != http.StatusUnprocessableEntity || json.Unmarshal(got, &p) != nil ||
			p.Code != "diagnostics" || len(p.Diagnostics) == 0 {
			return fmt.Errorf("truncated upload: status %d, want 422 diagnostics", resp.StatusCode)
		}
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if !bytes.Equal(got, w.design(q).want) {
		return errors.New("response differs from the library wirelist")
	}
	return nil
}

// closedLoop keeps every connection busy for d: each sender sends its
// next request as soon as the previous one is answered. It measures the
// rate the server sustains with no idle time between requests.
func (w *serveWorkload) closedLoop(r *report, seq *int64, d time.Duration) loadResult {
	var res loadResult
	var mu sync.Mutex
	var next atomic.Int64
	next.Store(*seq)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < serveConns(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				s := next.Add(1) - 1
				q := w.mix[int(s%int64(len(w.mix)))]
				body, path := w.body(s, q)
				err := w.send(path, body, q)
				mu.Lock()
				r.checkErr(err, "request")
				res.sent++
				if err != nil {
					res.failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	*seq = next.Load()
	return res
}

// passes reports whether a phase met the latency limit on its p99
// without a growing backlog: what was still queued when the schedule
// ended must finish within the limit too. A failed request misses the
// limit.
func (l loadResult) passes() bool {
	return l.failed == 0 && percentile(l.latMs, 99) <= ms(serveLimit) && l.drain <= serveLimit
}

// probeSize is the number of requests a ladder probe at rate sends:
// enough for p99 to have ten samples beyond it.
func probeSize(c *config, rate float64) int {
	if c.tiny {
		return 40
	}
	return max(1000, int(rate))
}

// findMaxRPS searches the ladder for the highest step that passes,
// within budget. It gallops from ladderStart until the pass/fail
// boundary is bracketed, then bisects. It returns the rate the highest
// passing probe achieved: requests sent over the time from the first
// due time to the last completion.
func (w *serveWorkload) findMaxRPS(c *config, r *report, seq *int64, nominal loadResult, budget time.Duration) (rps float64, probes, samples int) {
	lo, hi := -1, ladderSteps // lo passes (or is below the ladder), hi fails
	if nominal.passes() {
		lo = nominalStep
	} else {
		hi = nominalStep
	}
	achieved := map[int]float64{nominalStep: nominal.achieved()}
	k := ladderStart
	deadline := time.Now().Add(budget)
	for hi-lo > 1 && time.Now().Before(deadline) {
		if k <= lo || k >= hi {
			switch {
			case hi == ladderSteps:
				k = min(lo+ladderGallop, ladderSteps-1)
			case lo < 0:
				k = max(hi-ladderGallop, 0)
			default:
				k = (lo + hi) / 2
			}
		}
		n := probeSize(c, ladder(k))
		res := w.openLoop(r, *seq, ladder(k), n)
		*seq += int64(n)
		probes++
		samples += n
		if res.passes() {
			lo = k
			achieved[k] = res.achieved()
		} else {
			hi = k
		}
		k = -1
	}
	if lo < 0 {
		return 0, probes, samples
	}
	return achieved[lo], probes, samples
}

// achieved is the request rate a phase sustained.
func (l loadResult) achieved() float64 { return float64(l.sent) / l.elapsed.Seconds() }

// warmup sends a few requests so the engine's pools are filled before
// anything is timed.
func (w *serveWorkload) warmup(c *config, r *report, seq *int64) {
	n := probeSize(c, 0) / 20
	w.openLoop(r, *seq, ladder(nominalStep), n)
	*seq += int64(n)
}

// nominalSize is the request count of the nominal-rate phase: half
// the run, about 1500 requests in 20 s, and at least enough for p99.
// With 30% of the run, ten beyond p99, the p99's spread over ten seeds
// reached 0.19-0.23 of its median.
func nominalSize(c *config) int {
	return max(probeSize(c, ladder(nominalStep)), int(0.5*c.dur.Seconds()*ladder(nominalStep)))
}

// saturation is how long the closed-loop phase runs.
func saturation(c *config) time.Duration { return c.dur * 3 / 20 }

func (w *serveWorkload) run(c *config, r *report) error {
	var seq int64
	w.warmup(c, r, &seq)
	start := time.Now()
	n := nominalSize(c)
	nom := w.openLoop(r, seq, ladder(nominalStep), n)
	seq += int64(n)
	sat := w.closedLoop(r, &seq, saturation(c))
	maxRPS, probes, samples := w.findMaxRPS(c, r, &seq, nom, c.dur-time.Since(start))

	r.latency("serve", nom.latMs, 99)
	r.e2e(mThroughput, sat.achieved(), "1/s")
	r.named("serve_saturated_rps", sat.achieved(), "1/s", sat.sent)
	r.named("serve_max_rps", maxRPS, "1/s", samples+n)
	r.named("serve_ladder_probes", float64(probes), "count", probes)
	r.named("serve.gen_late_ms_p99", percentile(nom.lateMs, 99), "ms", len(nom.lateMs))
	r.named("serve_nominal_rps", ladder(nominalStep), "1/s", n)
	r.named("serve_nominal_load", ladder(nominalStep)/sat.achieved(), "ratio", sat.sent)
	return nil
}

// traced runs the nominal-rate phase with a span around the server's
// ServeHTTP, reads /statz, and replays the same uploads through the
// traced flat chain and a warm extract.Engine.
func (w *serveWorkload) traced(c *config, r *report) error {
	var seq int64
	w.warmup(c, r, &seq)
	n := nominalSize(c)
	plain := w.openLoop(r, seq, ladder(nominalStep), n)
	seq += int64(n)

	st0, err := w.statz()
	if err != nil {
		return err
	}
	w.handler.on.Store(true)
	tr := w.openLoop(r, seq, ladder(nominalStep), n)
	w.handler.on.Store(false)
	st1, err := w.statz()
	if err != nil {
		return err
	}

	// Replay the traced phase's uploads outside the server.
	eng := extract.NewEngine()
	var engMs []float64
	var reqs []flatLayers
	var buf, out []byte
	deadline := time.Now().Add(c.dur / 5)
	for i := int64(0); i < int64(n) && time.Now().Before(deadline); i++ {
		s := seq + i
		q := w.mix[int(s%int64(len(w.mix)))]
		if q.kind == reqTruncated {
			continue
		}
		body, _ := w.body(s, q)
		var res *extract.Result
		d, md, err := timedCall(func() (err error) {
			res, err = eng.Reader(bytes.NewReader(body), extract.Options{})
			if err != nil {
				return err
			}
			res.Netlist.Name = "upload"
			buf, err = wirelist.AppendTo(buf[:0], res.Netlist, wirelist.Options{})
			return err
		})
		r.check(err == nil && bytes.Equal(buf, w.design(q).want), "engine replay differs from the library wirelist (err %v)", err)
		engMs = append(engMs, ms(d))

		l, o, err := tracedChip(body, "upload", out)
		out = o
		r.check(err == nil && bytes.Equal(o, buf), "traced chain differs from the engine (err %v)", err)
		l.allocs, l.allocBytes = md.allocs, md.bytes
		// GC is counted over the traced phase, where it delays requests.
		l.gcs, l.gcPauseMs = tr.gc.gcs, tr.gc.pauseMs
		reqs = append(reqs, l)
	}

	h := w.handler
	h.mu.Lock()
	handlerMs := median(h.spans)
	h.mu.Unlock()
	client := median(tr.clientMs)
	r.layer("serve.client_ms", client, "ms")
	r.layer("serve.handler_ms", handlerMs, "ms")
	r.layer("serve.engine_ms", median(engMs), "ms")
	// Requests answered without an extraction of their own: store hits
	// and waits on a concurrent identical request, over those accepted.
	acc := float64(st1.Accepted - st0.Accepted)
	if acc > 0 {
		hits := st1.CacheHits - st0.CacheHits + st1.DedupWaits - st0.DedupWaits
		r.layer("serve.cache_hit_ratio", float64(hits)/acc, "ratio")
	}
	r.layer("serve.accepted", acc, "count")
	r.layer("serve.extractions", float64(st1.Extractions-st0.Extractions), "count")
	r.layer("serve.dedup_waits", float64(st1.DedupWaits-st0.DedupWaits), "count")
	r.layer("serve.shed", float64(shed(st1)-shed(st0)), "count")
	r.layer("serve.gen_late_ms_p99", percentile(tr.lateMs, 99), "ms")
	r.chainLayers(reqs)
	r.layer("trace.overhead_ratio", median(tr.latMs)/median(plain.latMs)-1, "ratio")
	// Client time not spent in the handler: transport, HTTP and the
	// load generator.
	r.layer("trace.unattributed_ratio", (client-handlerMs)/client, "ratio")
	return nil
}

// shed sums the requests the server refused.
func shed(s serve.Stats) int64 { return s.ShedQueueFull + s.ShedQueueWait + s.ShedTenant + s.ShedDrain }

// statz reads the server's /statz counters.
func (w *serveWorkload) statz() (serve.Stats, error) {
	var s serve.Stats
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, w.url+"/statz", nil)
	if err != nil {
		return s, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/statz: status %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}
