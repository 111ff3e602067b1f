package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"runtime/debug"
	"time"

	"ace/internal/cif"
	"ace/internal/extract"
	"ace/internal/frontend"
	"ace/internal/gen"
	"ace/internal/geom"
	"ace/internal/scan"
	"ace/internal/tile"
	"ace/internal/vfs"
	"ace/internal/wirelist"
)

// tilesWorkload packs a streamed chip to the .actb tile format during
// set-up and writes it to a file once, then, under a 64 MiB GOMEMLIMIT,
// extracts the whole chip from the file and answers seeded window
// queries. Set-up packs in memory: rewriting the file on every set-up
// repetition would free 66 MB on disk each time, which is slow to
// discard on some disks.
type tilesWorkload struct {
	path    string
	src     []byte // the chip's CIF text
	packed  []byte // the chip in the tile format, until written to path
	boxes   int64
	windows []geom.Rect
	want    []byte   // in-RAM flat extraction of src
	wantWin [][]byte // clipped in-RAM sweep of each window
}

const (
	tilesMemLimit = 64 << 20
	// windowsPerRound is how many window queries follow each whole-chip
	// extraction. A window's cost depends on how much of the chip it
	// covers, so the seeded set of windows is large enough that its
	// median hardly depends on the seed.
	windowsPerRound = 20
	numWindows      = 64
)

func (w *tilesWorkload) prepare(c *config) error {
	target := int64(2_000_000)
	if c.tiny {
		target = 20_000
	}
	var buf bytes.Buffer
	info, err := gen.StreamChip(&buf, gen.StreamSpec{TargetBoxes: target})
	if err != nil {
		return err
	}
	w.src, w.boxes = buf.Bytes(), info.Boxes
	var packed bytes.Buffer
	bbox, err := pack(w.src, &packed)
	if err != nil {
		return err
	}
	w.packed = packed.Bytes()
	// Seeded windows, each 1/32 of the chip on a side.
	rng := rand.New(rand.NewSource(c.seed))
	ww, wh := max(1, bbox.W()/32), max(1, bbox.H()/32)
	w.windows = w.windows[:0]
	for i := 0; i < numWindows; i++ {
		x := bbox.XMin + rng.Int63n(max(1, bbox.W()-ww))
		y := bbox.YMin + rng.Int63n(max(1, bbox.H()-wh))
		w.windows = append(w.windows, geom.Rect{XMin: x, YMin: y, XMax: x + ww, YMax: y + wh})
	}
	return nil
}

// pack writes src to dst in the tile format, as cifpack does, and
// returns the chip's bounding box.
func pack(src []byte, dst io.Writer) (geom.Rect, error) {
	f, err := cif.ParseBytes(src)
	if err != nil {
		return geom.Rect{}, err
	}
	stream, err := frontend.New(f, frontend.Options{})
	if err != nil {
		return geom.Rect{}, err
	}
	bbox := stream.BBox()
	tw, err := tile.NewWriter(dst, tile.NewGrid(bbox, tile.DefaultGrid, tile.DefaultGrid))
	if err != nil {
		return bbox, err
	}
	for _, l := range stream.Labels() {
		tw.AddLabel(l)
	}
	for {
		b, ok := stream.Next()
		if !ok {
			break
		}
		if err := tw.Add(b); err != nil {
			return bbox, err
		}
	}
	return bbox, tw.Close()
}

// writeTiles publishes the packed chip at path durably, as cifpack does.
func writeTiles(path string, packed []byte) error {
	dst, err := vfs.NewAtomicFile(vfs.OS, path)
	if err != nil {
		return err
	}
	defer dst.Abort() // no-op once committed
	if _, err := dst.Write(packed); err != nil {
		return err
	}
	return dst.Commit()
}

// reference extracts the chip in RAM, and sweeps each window's clipped
// boxes in RAM, as the tiled results must match byte for byte.
func (w *tilesWorkload) reference(c *config) error {
	w.path = c.scratchPath("chip.actb")
	if err := writeTiles(w.path, w.packed); err != nil {
		return err
	}
	w.packed = nil
	res, err := extract.Reader(bytes.NewReader(w.src), extract.Options{})
	if err != nil {
		return err
	}
	if w.want, err = wirelist.AppendTo(nil, res.Netlist, wirelist.Options{}); err != nil {
		return err
	}
	f, err := cif.ParseBytes(w.src)
	if err != nil {
		return err
	}
	stream, err := frontend.New(f, frontend.Options{})
	if err != nil {
		return err
	}
	labels := stream.Labels()
	clipped := make([][]frontend.Box, len(w.windows))
	for {
		b, ok := stream.Next()
		if !ok {
			break
		}
		for i, win := range w.windows {
			if b.Rect.Overlaps(win) {
				clipped[i] = append(clipped[i], frontend.Box{Layer: b.Layer, Rect: b.Rect.Intersect(win)})
			}
		}
	}
	w.wantWin = w.wantWin[:0]
	for i, win := range w.windows {
		scan.SortTopDown(clipped[i])
		var winLabels []frontend.Label
		for _, l := range labels {
			if win.Contains(l.At) {
				winLabels = append(winLabels, l)
			}
		}
		sres, err := scan.Sweep(scan.NewBoxSource(clipped[i]), scan.Options{Labels: winLabels})
		if err != nil {
			return err
		}
		out, err := wirelist.AppendTo(nil, sres.Netlist, wirelist.Options{})
		if err != nil {
			return err
		}
		w.wantWin = append(w.wantWin, out)
	}
	if c.wrong {
		w.want[len(w.want)/2] ^= 1
		for _, b := range w.wantWin {
			b[len(b)/2] ^= 1
		}
	}
	w.src = nil // the runs see only the tile file
	return nil
}

func (w *tilesWorkload) close() {}

// withMemLimit runs fn under the workload's GOMEMLIMIT and records the
// limit in r.
func withMemLimit(r *report, fn func() error) error {
	r.named("gomemlimit_mib", tilesMemLimit>>20, "MiB", 1)
	old := debug.SetMemoryLimit(tilesMemLimit)
	defer debug.SetMemoryLimit(old)
	return fn()
}

// round extracts the whole chip from a freshly opened tile file and
// then answers windowsPerRound seeded window queries on it. When md is
// not nil it receives the heap delta of the whole-chip extraction.
// Each round starts, untimed, from a collected heap whose free memory
// is returned to the OS and with the peak RSS mark reset, so that the
// peak read after it is that round's.
func (w *tilesWorkload) round(r *report, rng *rand.Rand, out []byte, chipMs, winMs *[]float64, md *memDelta) ([]byte, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0 memSnap
	if md != nil {
		m0 = readMem()
	}
	t0 := time.Now()
	tr, err := tile.Open(w.path)
	if err != nil {
		return out, err
	}
	defer tr.Close()
	res, err := extract.Tiles(tr, extract.Options{})
	if err == nil {
		out, err = wirelist.AppendTo(out[:0], res.Netlist, wirelist.Options{})
	}
	d := time.Since(t0)
	if md != nil {
		*md = readMem().since(m0)
	}
	r.check(err == nil && bytes.Equal(out, w.want), "whole chip from tiles differs from in-RAM extraction (err %v)", err)
	if err == nil {
		*chipMs = append(*chipMs, ms(d))
	}
	for i := 0; i < windowsPerRound; i++ {
		k := rng.Intn(len(w.windows))
		t0 := time.Now()
		res, err := extract.TileWindow(context.Background(), tr, w.windows[k], extract.Options{})
		if err == nil {
			out, err = wirelist.AppendTo(out[:0], res.Netlist, wirelist.Options{})
		}
		d := time.Since(t0)
		r.check(err == nil && bytes.Equal(out, w.wantWin[k]), "window %d differs from the clipped in-RAM sweep (err %v)", k, err)
		if err == nil {
			*winMs = append(*winMs, ms(d))
		}
	}
	return out, nil
}

func (w *tilesWorkload) run(c *config, r *report) error {
	rng := rand.New(rand.NewSource(c.seed))
	var chipMs, winMs, roundRSS []float64
	err := withMemLimit(r, func() error {
		var out []byte
		start := time.Now()
		for time.Since(start) < c.dur {
			var err error
			if out, err = w.round(r, rng, out, &chipMs, &winMs, nil); err != nil {
				return err
			}
			roundRSS = append(roundRSS, float64(peakRSSBytes())/(1<<20))
		}
		return nil
	})
	if err != nil {
		return err
	}
	bps := float64(w.boxes) / (median(chipMs) / 1000)
	r.e2e(mThroughput, bps, "1/s")
	r.named("tiles_boxes_per_s", bps, "boxes/s", len(chipMs))
	// The median of the rounds' peaks: the collector now and then leaves
	// a round with a tenth more mapped, which would set the run's peak.
	r.e2e("peak_rss_mib", median(roundRSS), "MiB")
	r.named("peak_rss_mib", median(roundRSS), "MiB", len(roundRSS))
	r.named("peak_rss_max_round_mib", percentile(roundRSS, 100), "MiB", len(roundRSS))
	r.latency("tiles_window", winMs, 90)
	return nil
}

// traced alternates an untraced round with a traced whole-chip run:
// tile.OpenFS on the timing filesystem, then scan.Sweep over a timed
// ReadBand(WholeChip()) source, whose self time is the decode time.
func (w *tilesWorkload) traced(c *config, r *report) error {
	rng := rand.New(rand.NewSource(c.seed))
	tfs := newTimingFS(vfs.OS)
	var plain, traced, readMs, decMs, unattr, ratio []float64
	var bytesRead, decoded float64
	var rounds []flatLayers
	err := withMemLimit(r, func() error {
		var out []byte
		start := time.Now()
		for time.Since(start) < c.dur {
			var chipMs, winMs []float64
			var md memDelta
			var err error
			if out, err = w.round(r, rng, out, &chipMs, &winMs, &md); err != nil {
				return err
			}
			if len(chipMs) == 0 {
				continue
			}
			plain = append(plain, chipMs[0])

			io0 := tfs.st.snap()
			t0 := time.Now()
			tr, err := tile.OpenFS(tfs, w.path)
			if err != nil {
				return err
			}
			c0 := tr.Counters()
			src := &timedSource{inner: tr.ReadBand(tile.WholeChip())}
			t1 := time.Now()
			io1 := tfs.st.snap()
			sres, err := scan.Sweep(src, scan.Options{Labels: tr.Labels()})
			t2 := time.Now()
			io2 := tfs.st.snap()
			if err == nil {
				out, err = wirelist.AppendTo(out[:0], sres.Netlist, wirelist.Options{})
			}
			t3 := time.Now()
			r.check(err == nil && bytes.Equal(out, w.want), "traced tiled chain differs from in-RAM extraction (err %v)", err)
			cn := tr.Counters()
			ioOpen, ioSweep := io1.sub(io0), io2.sub(io1)

			// Window tile ratio: tiles decoded per window over the file's
			// non-empty tiles.
			wc0 := tr.Counters()
			for _, win := range w.windows {
				if _, err := extract.TileWindow(context.Background(), tr, win, extract.Options{}); err != nil {
					return err
				}
			}
			wc := tr.Counters()
			ratio = append(ratio, float64(wc.TilesDecoded-wc0.TilesDecoded)/float64(len(w.windows))/float64(tr.NonEmptyTiles()))
			tr.Close()

			total := t3.Sub(t0)
			traced = append(traced, ms(total))
			openIO := time.Duration(ioOpen.openNs + ioOpen.readNs)
			readMs = append(readMs, ms(openIO+time.Duration(ioSweep.readNs)))
			decMs = append(decMs, ms(src.spent-time.Duration(ioSweep.readNs)))
			// Opening the file beyond its reads (index decode) is the only
			// part of the chain no layer metric covers.
			unattr = append(unattr, ms(t1.Sub(t0)-openIO))
			bytesRead = float64(cn.BytesRead - c0.BytesRead)
			decoded = float64(cn.TilesDecoded - c0.TilesDecoded)
			k := sres.Counters
			rounds = append(rounds, flatLayers{
				scanSelf: t2.Sub(t1) - src.spent, finish: sres.Timing.Output, write: t3.Sub(t2),
				stops: k.Stops, maxActive: k.MaxActive, sumActive: k.SumActive,
				netElems: k.NetElems, devElems: k.DevElems, outBytes: len(out),
				allocs: md.allocs, allocBytes: md.bytes, gcs: md.gcs, gcPauseMs: md.pauseMs,
			})
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layer("tile.read_ms", median(readMs), "ms")
	r.layer("tile.bytes_read", bytesRead, "bytes")
	r.layer("tile.tiles_decoded", decoded, "count")
	r.layer("tile.window_tile_ratio", median(ratio), "ratio")
	r.layer("tile.decode_ms", median(decMs), "ms")
	r.chainLayers(rounds)
	r.layer("trace.overhead_ratio", median(traced)/median(plain)-1, "ratio")
	r.layer("trace.unattributed_ratio", median(unattr)/median(traced), "ratio")
	r.named("traced_rounds", float64(len(traced)), "count", len(traced))
	return nil
}
