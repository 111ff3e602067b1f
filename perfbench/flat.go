package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"ace/internal/cif"
	"ace/internal/extract"
	"ace/internal/frontend"
	"ace/internal/gen"
	"ace/internal/scan"
	"ace/internal/wirelist"
)

// flatWorkload extracts the seven Table 5-1 chips at the paper's size
// the way `ace chip.cif` does: a fresh extract.Reader over the CIF
// bytes, then wirelist.AppendTo into memory, by one caller in a closed
// loop. One pass extracts every chip once, in a seeded order.
type flatWorkload struct {
	chips []flatChip
}

type flatChip struct {
	name     string
	src      []byte
	wantDevs int
	wantNets int // 0: not asserted
}

func (w *flatWorkload) prepare(c *config) error {
	scale := 1.0
	if c.tiny {
		scale = 0.01
	}
	w.chips = w.chips[:0]
	for _, ch := range gen.Chips {
		wl := ch.Build(scale)
		var buf bytes.Buffer
		if err := cif.Write(&buf, wl.File); err != nil {
			return fmt.Errorf("%s: %w", ch.Name, err)
		}
		w.chips = append(w.chips, flatChip{
			name: ch.Name, src: buf.Bytes(), wantDevs: wl.WantDevices, wantNets: wl.WantNets,
		})
	}
	return nil
}

// reference takes the generator's device and net counts as ground
// truth; prepare already holds them.
func (w *flatWorkload) reference(c *config) error {
	if c.wrong {
		for i := range w.chips {
			w.chips[i].wantDevs++
		}
	}
	return nil
}

func (w *flatWorkload) close() {}

// extractChip is the untraced end-to-end call.
func extractChip(src []byte, out []byte) (*extract.Result, []byte, error) {
	res, err := extract.Reader(bytes.NewReader(src), extract.Options{})
	if err != nil {
		return nil, out, err
	}
	out, err = wirelist.AppendTo(out[:0], res.Netlist, wirelist.Options{})
	return res, out, err
}

// checkChip counts one chip extraction against the generator's truth.
func (w *flatWorkload) checkChip(r *report, ch *flatChip, res *extract.Result, err error) {
	if err != nil {
		r.check(false, "%s: %v", ch.name, err)
		return
	}
	nl := res.Netlist
	r.check(len(nl.Devices) == ch.wantDevs && (ch.wantNets == 0 || len(nl.Nets) == ch.wantNets),
		"%s: %d devices, %d nets; want %d, %d", ch.name, len(nl.Devices), len(nl.Nets), ch.wantDevs, ch.wantNets)
}

func (w *flatWorkload) run(c *config, r *report) error {
	rng := rand.New(rand.NewSource(c.seed))
	var lat []float64
	var boxes, busy float64
	var out []byte
	start := time.Now()
	for time.Since(start) < c.dur {
		for _, i := range rng.Perm(len(w.chips)) {
			ch := &w.chips[i]
			t0 := time.Now()
			res, o, err := extractChip(ch.src, out)
			d := time.Since(t0)
			out = o
			w.checkChip(r, ch, res, err)
			if err != nil {
				continue
			}
			lat = append(lat, ms(d))
			boxes += float64(res.Counters.BoxesIn)
			busy += d.Seconds()
		}
	}
	r.e2e(mThroughput, boxes/busy, "1/s")
	r.named("flat_boxes_per_s", boxes/busy, "boxes/s", len(lat))
	r.latency("flat_chip", lat, 90)
	return nil
}

// flatLayers is one unit of traced work on the flat chain (a chip, a
// pass of chips, a request or a tile round), split by layer.
type flatLayers struct {
	parse, feSelf, scanSelf, finish, write time.Duration
	total                                  time.Duration // the caller's span around the chain

	items, boxes, cells                  int
	stops, maxActive, netElems, devElems int
	sumActive                            int64
	outBytes                             int

	allocs, allocBytes float64 // heap cost of one extraction
	gcs, gcPauseMs     float64 // GC cycles and pause over the unit
}

// tracedChip chains the layers' public calls exactly as extract.Reader
// and wirelist.AppendTo do, timing each, and returns the wirelist of
// the netlist named name.
func tracedChip(src []byte, name string, out []byte) (flatLayers, []byte, error) {
	var l flatLayers
	t0 := time.Now()
	f, err := cif.ParseReaderOpts(bytes.NewReader(src), cif.ParseOptions{})
	if err != nil {
		return l, out, err
	}
	t1 := time.Now()
	stream, err := frontend.New(f, frontend.Options{})
	if err != nil {
		return l, out, err
	}
	labels := stream.Labels()
	t2 := time.Now()
	src2 := &timedSource{inner: stream}
	sres, err := scan.Sweep(src2, scan.Options{Labels: labels})
	if err != nil {
		return l, out, err
	}
	t3 := time.Now()
	sres.Netlist.Name = name
	out, err = wirelist.AppendTo(out[:0], sres.Netlist, wirelist.Options{})
	if err != nil {
		return l, out, err
	}
	t4 := time.Now()

	l.parse = t1.Sub(t0)
	l.feSelf = t2.Sub(t1) + src2.spent
	l.scanSelf = t3.Sub(t2) - src2.spent
	l.finish = sres.Timing.Output
	l.write = t4.Sub(t3)
	l.items = len(f.Top)
	for _, s := range f.Symbols {
		l.items += len(s.Items)
	}
	st := stream.Stats()
	l.boxes, l.cells = st.BoxesOut, st.CellsExpanded
	cn := sres.Counters
	l.stops, l.maxActive, l.sumActive = cn.Stops, cn.MaxActive, cn.SumActive
	l.netElems, l.devElems = cn.NetElems, cn.DevElems
	l.outBytes = len(out)
	return l, out, nil
}

// traced alternates an untraced pass with a traced pass over the same
// chips in the same order. Per-layer times are medians over passes of
// the per-pass sums; counts are per pass.
func (w *flatWorkload) traced(c *config, r *report) error {
	rng := rand.New(rand.NewSource(c.seed))
	var plain, traced, unattr []float64
	var passes []flatLayers
	var outA, outB []byte
	start := time.Now()
	for time.Since(start) < c.dur {
		order := rng.Perm(len(w.chips))
		m0 := readMem()
		t0 := time.Now()
		want := make([][]byte, len(w.chips))
		for _, i := range order {
			res, o, err := extractChip(w.chips[i].src, outA)
			outA = o
			w.checkChip(r, &w.chips[i], res, err)
			want[i] = append([]byte(nil), o...)
		}
		plain = append(plain, ms(time.Since(t0)))
		md := readMem().since(m0)

		var sum flatLayers
		for _, i := range order {
			t0 := time.Now()
			l, o, err := tracedChip(w.chips[i].src, "", outB)
			l.total = time.Since(t0)
			outB = o
			r.check(err == nil && bytes.Equal(o, want[i]), "%s: traced wirelist differs from untraced (err %v)", w.chips[i].name, err)
			sum.add(l)
		}
		n := float64(len(w.chips))
		sum.allocs, sum.allocBytes = md.allocs/n, md.bytes/n
		sum.gcs, sum.gcPauseMs = md.gcs, md.pauseMs
		passes = append(passes, sum)
		traced = append(traced, ms(sum.total))
		unattr = append(unattr, ms(sum.total-sum.parse-sum.feSelf-sum.scanSelf-sum.write))
	}
	r.chainLayers(passes)
	r.layer("trace.overhead_ratio", median(traced)/median(plain)-1, "ratio")
	r.layer("trace.unattributed_ratio", median(unattr)/median(traced), "ratio")
	r.named("traced_passes", float64(len(traced)), "count", len(traced))
	return nil
}

// add accumulates a chip's layers into a pass total. maxActive keeps
// the largest chip's peak.
func (s *flatLayers) add(l flatLayers) {
	s.parse += l.parse
	s.feSelf += l.feSelf
	s.scanSelf += l.scanSelf
	s.finish += l.finish
	s.write += l.write
	s.total += l.total
	s.items += l.items
	s.boxes += l.boxes
	s.cells += l.cells
	s.stops += l.stops
	if l.maxActive > s.maxActive {
		s.maxActive = l.maxActive
	}
	s.sumActive += l.sumActive
	s.netElems += l.netElems
	s.devElems += l.devElems
	s.outBytes += l.outBytes
}

// chainLayers reports the flat chain's layers (cif, frontend, scan,
// build, wirelist), the extraction's heap cost and GC as medians over
// units of traced work. A layer the units do not use reports zero.
func (r *report) chainLayers(units []flatLayers) {
	med := func(f func(l *flatLayers) float64) float64 {
		xs := make([]float64, len(units))
		for i := range units {
			xs[i] = f(&units[i])
		}
		return median(xs)
	}
	for _, m := range []struct {
		name, unit string
		f          func(l *flatLayers) float64
	}{
		{"cif.parse_ms", "ms", func(l *flatLayers) float64 { return ms(l.parse) }},
		{"cif.items", "count", func(l *flatLayers) float64 { return float64(l.items) }},
		{"frontend.self_ms", "ms", func(l *flatLayers) float64 { return ms(l.feSelf) }},
		{"frontend.boxes", "count", func(l *flatLayers) float64 { return float64(l.boxes) }},
		{"frontend.cells_expanded", "count", func(l *flatLayers) float64 { return float64(l.cells) }},
		{"scan.self_ms", "ms", func(l *flatLayers) float64 { return ms(l.scanSelf) }},
		{"scan.stops", "count", func(l *flatLayers) float64 { return float64(l.stops) }},
		{"scan.max_active", "count", func(l *flatLayers) float64 { return float64(l.maxActive) }},
		{"scan.sum_active", "count", func(l *flatLayers) float64 { return float64(l.sumActive) }},
		{"build.finish_ms", "ms", func(l *flatLayers) float64 { return ms(l.finish) }},
		{"build.net_elems", "count", func(l *flatLayers) float64 { return float64(l.netElems) }},
		{"build.dev_elems", "count", func(l *flatLayers) float64 { return float64(l.devElems) }},
		{"wirelist.write_ms", "ms", func(l *flatLayers) float64 { return ms(l.write) }},
		{"wirelist.bytes", "bytes", func(l *flatLayers) float64 { return float64(l.outBytes) }},
		{"extract.allocs_per_op", "count", func(l *flatLayers) float64 { return l.allocs }},
		{"extract.bytes_per_op", "bytes", func(l *flatLayers) float64 { return l.allocBytes }},
		{"gc.cycles", "count", func(l *flatLayers) float64 { return l.gcs }},
		{"gc.pause_ms", "ms", func(l *flatLayers) float64 { return l.gcPauseMs }},
	} {
		r.layer(m.name, med(m.f), m.unit)
	}
}
