package scan

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"ace/internal/frontend"
	"ace/internal/gen"
	"ace/internal/geom"
	"ace/internal/netlist"
	"ace/internal/tech"
	"ace/internal/wirelist"
)

func randomBoxes(rng *rand.Rand, n int) []frontend.Box {
	layers := []tech.Layer{tech.Diff, tech.Poly, tech.Metal, tech.Cut, tech.Buried, tech.Implant}
	boxes := make([]frontend.Box, n)
	for i := range boxes {
		l := layers[rng.Intn(len(layers))]
		x := int64(rng.Intn(600))
		y := int64(rng.Intn(600))
		boxes[i] = frontend.Box{Layer: l,
			Rect: geom.R(x, y, x+int64(10+rng.Intn(250)), y+int64(10+rng.Intn(250)))}
	}
	return boxes
}

func mustSweep(t *testing.T, boxes []frontend.Box, opt Options) *netlist.Netlist {
	t.Helper()
	res, err := Sweep(newSource(boxes...), opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Netlist
}

// TestSplitInvariance: splitting any box into two exactly-abutting
// halves must never change the extracted circuit. This is the
// invariant underlying both the front end's manhattanisation and
// HEXT's window clipping.
func TestSplitInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		boxes := randomBoxes(rng, 4+rng.Intn(16))
		base := mustSweep(t, boxes, Options{})

		split := make([]frontend.Box, 0, 2*len(boxes))
		for _, b := range boxes {
			r := b.Rect
			if rng.Intn(2) == 0 && r.W() >= 2 {
				mid := r.XMin + 1 + int64(rng.Intn(int(r.W()-1)))
				split = append(split,
					frontend.Box{Layer: b.Layer, Rect: geom.R(r.XMin, r.YMin, mid, r.YMax)},
					frontend.Box{Layer: b.Layer, Rect: geom.R(mid, r.YMin, r.XMax, r.YMax)})
			} else if r.H() >= 2 {
				mid := r.YMin + 1 + int64(rng.Intn(int(r.H()-1)))
				split = append(split,
					frontend.Box{Layer: b.Layer, Rect: geom.R(r.XMin, r.YMin, r.XMax, mid)},
					frontend.Box{Layer: b.Layer, Rect: geom.R(r.XMin, mid, r.XMax, r.YMax)})
			} else {
				split = append(split, b)
			}
		}
		after := mustSweep(t, split, Options{})
		if eq, why := netlist.Equivalent(base, after); !eq {
			t.Fatalf("trial %d: splitting changed the circuit: %s\nboxes: %v",
				trial, why, boxes)
		}
	}
}

// TestDuplicateInvariance: duplicating boxes (fully overlapping
// geometry) must not change the circuit.
func TestDuplicateInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 30; trial++ {
		boxes := randomBoxes(rng, 4+rng.Intn(12))
		base := mustSweep(t, boxes, Options{})
		dup := append(append([]frontend.Box{}, boxes...), boxes...)
		after := mustSweep(t, dup, Options{})
		if eq, why := netlist.Equivalent(base, after); !eq {
			t.Fatalf("trial %d: duplication changed the circuit: %s", trial, why)
		}
	}
}

// TestTranslationInvariance: shifting the whole design must yield an
// isomorphic circuit.
func TestTranslationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		boxes := randomBoxes(rng, 4+rng.Intn(12))
		base := mustSweep(t, boxes, Options{})
		d := geom.Pt(int64(rng.Intn(2000)-1000), int64(rng.Intn(2000)-1000))
		moved := make([]frontend.Box, len(boxes))
		for i, b := range boxes {
			moved[i] = frontend.Box{Layer: b.Layer, Rect: b.Rect.Translate(d)}
		}
		after := mustSweep(t, moved, Options{})
		if eq, why := netlist.Equivalent(base, after); !eq {
			t.Fatalf("trial %d: translation changed the circuit: %s", trial, why)
		}
	}
}

// TestMirrorInvariance: mirroring the design in x must yield an
// isomorphic circuit (the scanline direction must not matter).
func TestMirrorInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 30; trial++ {
		boxes := randomBoxes(rng, 4+rng.Intn(12))
		base := mustSweep(t, boxes, Options{})
		mx := geom.MirrorX()
		mirrored := make([]frontend.Box, len(boxes))
		for i, b := range boxes {
			mirrored[i] = frontend.Box{Layer: b.Layer, Rect: mx.ApplyRect(b.Rect)}
		}
		after := mustSweep(t, mirrored, Options{})
		if eq, why := netlist.Equivalent(base, after); !eq {
			t.Fatalf("trial %d: mirroring changed the circuit: %s", trial, why)
		}
	}
}

// TestRotationInvariance: rotating the design 90° must yield an
// isomorphic circuit — a strong test because vertical and horizontal
// S/D contact accounting use entirely different code paths.
func TestRotationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	r90, _ := geom.Rotate(0, 1)
	for trial := 0; trial < 40; trial++ {
		boxes := randomBoxes(rng, 4+rng.Intn(12))
		base := mustSweep(t, boxes, Options{})
		rot := make([]frontend.Box, len(boxes))
		for i, b := range boxes {
			rot[i] = frontend.Box{Layer: b.Layer, Rect: r90.ApplyRect(b.Rect)}
		}
		after := mustSweep(t, rot, Options{})
		if eq, why := netlist.Equivalent(base, after); !eq {
			t.Fatalf("trial %d: rotation changed the circuit: %s\nboxes: %v",
				trial, why, boxes)
		}
	}
}

// TestInsertionSortEquivalence: the ablation mode (the paper's
// original insertion sort) must produce identical results.
func TestInsertionSortEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 20; trial++ {
		boxes := randomBoxes(rng, 4+rng.Intn(20))
		a := mustSweep(t, boxes, Options{})
		b := mustSweep(t, boxes, Options{InsertionSort: true})
		if eq, why := netlist.Equivalent(a, b); !eq {
			t.Fatalf("trial %d: insertion-sort mode differs: %s", trial, why)
		}
	}
}

// TestSameTopOrderInvariance: boxes sharing a top edge may arrive in
// any order; the result must not depend on it.
func TestSameTopOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(12)
		boxes := randomBoxes(rng, n)
		// Force groups of boxes to share tops.
		for i := range boxes {
			r := &boxes[i].Rect
			top := (r.YMax / 100) * 100
			if top <= r.YMin {
				top = r.YMin + 100
			}
			r.YMax = top
		}
		base := mustSweep(t, boxes, Options{})
		rng.Shuffle(len(boxes), func(i, j int) { boxes[i], boxes[j] = boxes[j], boxes[i] })
		after := mustSweep(t, boxes, Options{})
		if eq, why := netlist.Equivalent(base, after); !eq {
			t.Fatalf("trial %d: same-top order changed the circuit: %s", trial, why)
		}
	}
}

// TestTieShuffleByteIdentical pins the property the front end's
// unspecified tie order rests on: shuffling the boxes that share a top
// leaves the wirelist and warnings byte-identical, serial and
// band-parallel, with and without geometry. It runs on random designs
// with clustered tops and on every Table 5-1 chip at scale 0.05.
func TestTieShuffleByteIdentical(t *testing.T) {
	type design struct {
		name   string
		boxes  []frontend.Box
		labels []frontend.Label
	}
	var designs []design
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		boxes := randomBoxes(rng, 8+rng.Intn(400))
		for i := range boxes {
			r := &boxes[i].Rect
			r.YMax = max(r.YMin+1, r.YMax/50*50)
		}
		slices.SortStableFunc(boxes, func(a, b frontend.Box) int { return int(b.Rect.YMax - a.Rect.YMax) })
		designs = append(designs, design{name: "random", boxes: boxes})
	}
	for _, c := range gen.Chips {
		s, err := frontend.New(c.Build(0.05).File, frontend.Options{})
		if err != nil {
			t.Fatal(err)
		}
		labels := s.Labels()
		designs = append(designs, design{name: c.Name, boxes: s.Drain(), labels: labels})
	}
	render := func(boxes []frontend.Box, labels []frontend.Label, keep bool, workers int) []byte {
		opt := Options{KeepGeometry: keep, Labels: labels}
		res, err := ParallelSweep(slices.Clone(boxes), opt, workers)
		if err != nil {
			t.Fatal(err)
		}
		out, err := wirelist.AppendTo(nil, res.Netlist, wirelist.Options{Geometry: keep})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range res.Warnings {
			out = append(append(out, w...), '\n')
		}
		return out
	}
	for _, d := range designs {
		shuffled := slices.Clone(d.boxes)
		for i := 0; i < len(shuffled); {
			j := i + 1
			for j < len(shuffled) && shuffled[j].Rect.YMax == shuffled[i].Rect.YMax {
				j++
			}
			run := shuffled[i:j]
			rng.Shuffle(len(run), func(a, b int) { run[a], run[b] = run[b], run[a] })
			i = j
		}
		for _, keep := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				want := render(d.boxes, d.labels, keep, workers)
				if got := render(shuffled, d.labels, keep, workers); !bytes.Equal(got, want) {
					t.Fatalf("%s (%d boxes) KeepGeometry=%v workers=%d: shuffling ties changed the wirelist",
						d.name, len(d.boxes), keep, workers)
				}
			}
		}
	}
}
