package extract

import (
	"bytes"
	"context"
	"testing"

	"ace/internal/cif"
	"ace/internal/frontend"
	"ace/internal/gen"
	"ace/internal/geom"
	"ace/internal/scan"
	"ace/internal/tile"
	"ace/internal/wirelist"
)

// packFile streams a parsed design through the lazy front end into an
// in-memory tile file, exactly as cifpack does.
func packFile(t *testing.T, f *cif.File, cols, rows int) *tile.Reader {
	t.Helper()
	stream, err := frontend.New(f, frontend.Options{})
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	bbox := stream.BBox()
	labels := stream.Labels()
	var buf bytes.Buffer
	w, err := tile.NewWriter(&buf, tile.NewGrid(bbox, cols, rows))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, l := range labels {
		w.AddLabel(l)
	}
	for {
		b, ok := stream.Next()
		if !ok {
			break
		}
		if err := w.Add(b); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := tile.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	return r
}

func formatTiled(t *testing.T, name string, r *tile.Reader, opt Options) string {
	t.Helper()
	res, err := Tiles(r, opt)
	if err != nil {
		t.Fatalf("%s %+v: %v", name, opt, err)
	}
	return wirelist.Format(res.Netlist, wirelist.Options{Geometry: opt.KeepGeometry})
}

// TestTiledWirelistByteIdentical is the out-of-core acceptance matrix:
// extracting from the packed tile file must reproduce the in-RAM
// pipeline's wirelist byte for byte, at sweep workers {1, 4}, for
// every corpus file and generated chip, across tile grid resolutions
// (including degenerate 1×1 and a grid much finer than the designs).
func TestTiledWirelistByteIdentical(t *testing.T) {
	grids := [][2]int{{1, 1}, {4, 4}, {16, 16}}
	for name, f := range equivDesigns(t) {
		for _, sw := range equivSweepWorkers {
			want := formatWirelist(t, name, f, Options{Workers: sw})
			for _, g := range grids {
				r := packFile(t, f, g[0], g[1])
				got := formatTiled(t, name, r, Options{Workers: sw})
				if got != want {
					i := diffPos(want, got)
					lo := i - 60
					if lo < 0 {
						lo = 0
					}
					t.Fatalf("%s sweep=%d grid=%v: wirelist differs at byte %d\nin-RAM: …%q\ntiled:  …%q",
						name, sw, g, i, want[lo:min(i+60, len(want))], got[lo:min(i+60, len(got))])
				}
			}
		}
	}
}

// TestTiledWirelistGeometry repeats a slice of the matrix with
// geometry recording on, pinning the tiled source's delivery order at
// the finest level the output can express.
func TestTiledWirelistGeometry(t *testing.T) {
	for _, name := range []string{"polygons.cif", "labels.cif", "rotated.cif"} {
		f := readCorpus(t, name)
		for _, sw := range equivSweepWorkers {
			want := formatWirelist(t, name, f, Options{Workers: sw, KeepGeometry: true})
			r := packFile(t, f, 8, 8)
			got := formatTiled(t, name, r, Options{Workers: sw, KeepGeometry: true})
			if got != want {
				i := diffPos(want, got)
				t.Fatalf("%s sweep=%d: geometry wirelist differs at byte %d", name, sw, i)
			}
		}
	}
}

// TestTileWindowMatchesClippedSweep checks the windowed read against a
// reference built the straightforward way: drain the whole design,
// clip every box to the window by hand, sweep the clipped list.
func TestTileWindowMatchesClippedSweep(t *testing.T) {
	for _, name := range []string{"wires.cif", "polygons.cif", "labels.cif"} {
		f := readCorpus(t, name)
		stream, err := frontend.New(f, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		labels := stream.Labels()
		boxes := stream.Drain()
		bb := stream.BBox()
		windows := []geom.Rect{
			bb, // whole chip
			{XMin: bb.XMin, YMin: (bb.YMin + bb.YMax) / 2, XMax: (bb.XMin + bb.XMax) / 2, YMax: bb.YMax},
			{XMin: bb.XMin + bb.W()/4, YMin: bb.YMin + bb.H()/4, XMax: bb.XMax - bb.W()/4, YMax: bb.YMax - bb.H()/4},
		}
		r := packFile(t, f, 8, 8)
		for _, win := range windows {
			var clipped []frontend.Box
			for _, b := range boxes {
				if !b.Rect.Overlaps(win) {
					continue
				}
				clipped = append(clipped, frontend.Box{Layer: b.Layer, Rect: b.Rect.Intersect(win)})
			}
			scan.SortTopDown(clipped)
			var winLabels []frontend.Label
			for _, l := range labels {
				if win.Contains(l.At) {
					winLabels = append(winLabels, l)
				}
			}
			sres, err := scan.Sweep(scan.NewBoxSource(clipped), scan.Options{Labels: winLabels})
			if err != nil {
				t.Fatalf("%s reference sweep: %v", name, err)
			}
			want := wirelist.Format(sres.Netlist, wirelist.Options{})

			res, err := TileWindow(context.Background(), r, win, Options{})
			if err != nil {
				t.Fatalf("%s window %v: %v", name, win, err)
			}
			got := wirelist.Format(res.Netlist, wirelist.Options{})
			if got != want {
				t.Fatalf("%s window %v: wirelist differs at byte %d", name, win, diffPos(want, got))
			}
			if res.Tile == nil || res.Tile.TilesDecoded == 0 && len(clipped) > 0 {
				t.Fatalf("%s window %v: missing tile I/O counters: %+v", name, win, res.Tile)
			}
		}
	}
}

// TestTiledCorruptFailsSoft: extraction from a damaged file must
// surface the tile error, not a truncated-but-plausible wirelist.
func TestTiledCorruptFailsSoft(t *testing.T) {
	f := readCorpus(t, "wires.cif")
	stream, err := frontend.New(f, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := tile.NewWriter(&buf, tile.NewGrid(stream.BBox(), 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for {
		b, ok := stream.Next()
		if !ok {
			break
		}
		if err := w.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a payload byte (inside the tile region, past the header).
	mut := append([]byte(nil), raw...)
	mut[len(mut)/4] ^= 0x40
	r, err := tile.NewReader(bytes.NewReader(mut), int64(len(mut)))
	if err != nil {
		// Damage landed in the index: typed failure at open is fine too.
		return
	}
	for _, workers := range []int{1, 4} {
		if _, err := Tiles(r, Options{Workers: workers}); err == nil {
			t.Fatalf("workers=%d: corrupt tile file extracted without error", workers)
		}
	}
}

// TestEngineTilesWarmByteIdentical covers the warm tiled path: one
// Engine runs Tiles, TilesContext and TileWindow over several designs,
// round after round and interleaved, so pooled sweepers, builders and
// tile decode arenas are reset from one shape into another. Every
// wirelist must equal the cold Tiles/TileWindow output byte for byte.
func TestEngineTilesWarmByteIdentical(t *testing.T) {
	type job struct {
		name       string
		cold, warm *tile.Reader
		win        geom.Rect
	}
	var jobs []job
	designs := map[string]*cif.File{}
	for _, name := range []string{"labels.cif", "polygons.cif", "wires.cif"} {
		designs[name] = readCorpus(t, name)
	}
	for _, w := range gen.BenchChips()[:4] {
		designs[w.Name] = w.File
	}
	for name, f := range designs {
		cold := packFile(t, f, 8, 8)
		bb := cold.BBox()
		win := geom.Rect{XMin: bb.XMin + bb.W()/4, YMin: bb.YMin + bb.H()/4, XMax: bb.XMax - bb.W()/4, YMax: bb.YMax - bb.H()/4}
		jobs = append(jobs, job{name, cold, packFile(t, f, 8, 8), win})
	}
	ctx := context.Background()
	opts := []Options{{}, {Workers: 4}, {KeepGeometry: true}}
	format := func(res *Result, err error, what string, opt Options) string {
		t.Helper()
		if err != nil {
			t.Fatalf("%s %+v: %v", what, opt, err)
		}
		return wirelist.Format(res.Netlist, wirelist.Options{Geometry: opt.KeepGeometry})
	}
	type want struct{ whole, window string }
	wants := map[string][]want{}
	for _, j := range jobs {
		for _, opt := range opts {
			res, err := Tiles(j.cold, opt)
			whole := format(res, err, j.name+" cold Tiles", opt)
			res, err = TileWindow(ctx, j.cold, j.win, opt)
			wants[j.name] = append(wants[j.name], want{whole, format(res, err, j.name+" cold TileWindow", opt)})
		}
	}
	eng := NewEngine()
	for round := 0; round < 3; round++ {
		for _, j := range jobs {
			for i, opt := range opts {
				w := wants[j.name][i]
				res, err := eng.Tiles(j.warm, opt)
				if got := format(res, err, j.name+" warm Tiles", opt); got != w.whole {
					t.Fatalf("%s %+v round %d: warm Tiles differs at byte %d", j.name, opt, round, diffPos(w.whole, got))
				}
				res, err = eng.TilesContext(ctx, j.warm, opt)
				if got := format(res, err, j.name+" warm TilesContext", opt); got != w.whole {
					t.Fatalf("%s %+v round %d: warm TilesContext differs at byte %d", j.name, opt, round, diffPos(w.whole, got))
				}
				res, err = eng.TileWindow(ctx, j.warm, j.win, opt)
				if got := format(res, err, j.name+" warm TileWindow", opt); got != w.window {
					t.Fatalf("%s %+v round %d: warm TileWindow differs at byte %d", j.name, opt, round, diffPos(w.window, got))
				}
			}
		}
	}
}
