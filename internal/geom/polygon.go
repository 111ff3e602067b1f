package geom

import (
	"fmt"
	"math"
	"slices"
)

// Polygon is a simple closed polygon described by its vertices in
// order (either winding). The closing edge from the last vertex back
// to the first is implicit.
type Polygon []Point

// BBox returns the polygon's bounding box.
func (pg Polygon) BBox() Rect {
	if len(pg) == 0 {
		return Rect{}
	}
	r := Rect{pg[0].X, pg[0].Y, pg[0].X, pg[0].Y}
	for _, p := range pg[1:] {
		r.XMin = min64(r.XMin, p.X)
		r.XMax = max64(r.XMax, p.X)
		r.YMin = min64(r.YMin, p.Y)
		r.YMax = max64(r.YMax, p.Y)
	}
	return r
}

// Area2 returns twice the signed area of the polygon (positive for
// counter-clockwise winding). Doubling keeps the result integral.
func (pg Polygon) Area2() int64 {
	var s int64
	n := len(pg)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		s += pg[i].X*pg[j].Y - pg[j].X*pg[i].Y
	}
	return s
}

// Translate returns the polygon shifted by d.
func (pg Polygon) Translate(d Point) Polygon {
	out := make(Polygon, len(pg))
	for i, p := range pg {
		out[i] = p.Add(d)
	}
	return out
}

// Apply returns the polygon mapped through t.
func (pg Polygon) Apply(t Transform) Polygon {
	out := make(Polygon, len(pg))
	for i, p := range pg {
		out[i] = t.Apply(p)
	}
	return out
}

// IsRect reports whether the polygon is exactly an axis-aligned
// rectangle, and returns it if so.
func (pg Polygon) IsRect() (Rect, bool) {
	if len(pg) != 4 {
		return Rect{}, false
	}
	bb := pg.BBox()
	for _, p := range pg {
		onX := p.X == bb.XMin || p.X == bb.XMax
		onY := p.Y == bb.YMin || p.Y == bb.YMax
		if !onX || !onY {
			return Rect{}, false
		}
	}
	// The four corners must all be distinct for a true rectangle.
	for i := range pg {
		for j := i + 1; j < len(pg); j++ {
			if pg[i] == pg[j] {
				return Rect{}, false
			}
		}
	}
	return bb, !bb.Empty()
}

// Manhattanize approximates the polygon with axis-aligned boxes whose
// edges are multiples of grid. Bands of height ≤ grid are sampled at
// their vertical midpoint using even-odd fill; interval endpoints are
// rounded to the nearest grid line. Vertically compatible boxes are
// merged before returning. A non-positive grid defaults to 1.
//
// This is the front end's treatment of non-manhattan geometry: "split
// into a number of small aligned boxes that approximate the original
// object" (ACE §3).
func (pg Polygon) Manhattanize(grid int64) []Rect {
	var sc BoxScratch
	return pg.manhattanizeInto(&sc, grid)
}

// ApplyManhattanize maps the polygon through t and manhattanises it,
// drawing every intermediate buffer from sc (nil: allocate per call).
// The result aliases sc and is valid until the scratch's next use.
func (pg Polygon) ApplyManhattanize(sc *BoxScratch, t Transform, grid int64) []Rect {
	if sc == nil {
		sc = &BoxScratch{}
	}
	tp := sc.poly[:0]
	for _, p := range pg {
		tp = append(tp, t.Apply(p))
	}
	sc.poly = tp
	return tp.manhattanizeInto(sc, grid)
}

// ApplyBands returns how many grid bands ApplyManhattanize(sc, t, grid)
// sweeps — each band a row of rectangles it materialises before
// merging. It allocates nothing, so a front end can check its budgets
// before a tiny item describing a huge shape is decomposed.
func (pg Polygon) ApplyBands(t Transform, grid int64) int64 {
	if len(pg) < 3 {
		return 0
	}
	if _, ok := pg.IsRect(); ok {
		return 1 // transforms are orthogonal: a rectangle stays one
	}
	bb := t.ApplyRect(pg.BBox())
	return bandsBetween(bb.YMin, bb.YMax, grid)
}

// bandsBetween counts the grid bands covering [lo, hi], saturating at
// math.MaxInt64 where the difference overflows.
func bandsBetween(lo, hi, grid int64) int64 {
	if grid <= 0 {
		grid = 1
	}
	n := ceilDiv(hi, grid) - floorDiv(lo, grid)
	if n < 0 {
		return math.MaxInt64
	}
	return n
}

// manhattanizeInto is Manhattanize drawing scratch from sc. The
// receiver may alias sc.poly; only sc.xs, sc.out and the
// canonicalisation buffers are touched.
func (pg Polygon) manhattanizeInto(sc *BoxScratch, grid int64) []Rect {
	if grid <= 0 {
		grid = 1
	}
	if len(pg) < 3 {
		return nil
	}
	if r, ok := pg.IsRect(); ok {
		sc.out = append(sc.out[:0], r)
		return sc.out
	}

	bb := pg.BBox()
	yLo := floorDiv(bb.YMin, grid) * grid
	yHi := ceilDiv(bb.YMax, grid) * grid

	out := sc.out[:0]
	xs := sc.xs
	for y := yLo; y < yHi; y += grid {
		// Sample the fill at the band's vertical midpoint. Midpoints
		// are half-integral in general; scale by 2 to stay integral.
		ymid2 := 2*y + grid // == 2*(y + grid/2)
		xs = pg.appendCrossings2(xs[:0], ymid2)
		for i := 0; i+1 < len(xs); i += 2 {
			x0 := roundToGrid2(xs[i], grid)
			x1 := roundToGrid2(xs[i+1], grid)
			if x1 > x0 {
				out = append(out, Rect{x0, y, x1, y + grid})
			}
		}
	}
	sc.out, sc.xs = out, xs
	return canonicalizeInto(sc, out)
}

// appendCrossings2 appends onto xs the sorted doubled x coordinates
// where the polygon's edges cross the horizontal line 2*y = ymid2, and
// returns the extended slice (a scratch buffer the band loop reuses).
// All arithmetic is in doubled coordinates so the half-integral
// sampling line stays exact; because the line sits strictly between
// integer grid lines it can never pass through a vertex, so each
// crossing is a clean transversal.
func (pg Polygon) appendCrossings2(xs []int64, ymid2 int64) []int64 {
	n := len(pg)
	for i := 0; i < n; i++ {
		a, b := pg[i], pg[(i+1)%n]
		ay2, by2 := 2*a.Y, 2*b.Y
		if (ay2 < ymid2) == (by2 < ymid2) {
			continue // both endpoints on the same side: no crossing
		}
		// x = ax + (ymid-ay) * (bx-ax)/(by-ay), in doubled coords.
		num := (ymid2 - ay2) * (2*b.X - 2*a.X)
		den := by2 - ay2
		xs = append(xs, 2*a.X+divRound(num, den))
	}
	slices.Sort(xs)
	return xs
}

// roundToGrid2 rounds a doubled coordinate x2 to the nearest multiple
// of grid (in ordinary coordinates).
func roundToGrid2(x2, grid int64) int64 {
	g2 := 2 * grid
	q := divRound(x2, g2)
	return q * grid
}

// divRound divides with rounding to nearest (ties toward +infinity),
// correct for negative operands.
func divRound(num, den int64) int64 {
	if den < 0 {
		num, den = -num, -den
	}
	if num >= 0 {
		return (num + den/2) / den
	}
	return -((-num + den/2 - 1) / den)
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	return -floorDiv(-a, b)
}

// Wire is a CIF wire: a path of points drawn with a given width. The
// CIF definition gives each segment rectangular body of the wire width
// and round end caps; like most extractors we approximate the caps
// with squares (a half-width extension at each path end and a full
// square at each interior joint).
type Wire struct {
	Width int64
	Path  []Point
}

// Boxes converts the wire to axis-aligned boxes on the given grid.
// Axis-aligned segments convert exactly; diagonal segments are
// approximated via polygon manhattanisation.
func (w Wire) Boxes(grid int64) []Rect {
	var sc BoxScratch
	return w.boxesInto(&sc, grid)
}

// ApplyBoxes maps the wire's path through t and converts it to boxes,
// drawing every intermediate buffer from sc (nil: allocate per call).
// The result aliases sc and is valid until the scratch's next use.
func (w Wire) ApplyBoxes(sc *BoxScratch, t Transform, grid int64) []Rect {
	if sc == nil {
		sc = &BoxScratch{}
	}
	path := sc.path[:0]
	for _, p := range w.Path {
		path = append(path, t.Apply(p))
	}
	sc.path = path
	return Wire{Width: w.Width, Path: path}.boxesInto(sc, grid)
}

// ApplyBands bounds the rectangles ApplyBoxes(sc, t, grid)
// materialises: one per axis-aligned segment (or for a lone point),
// and for a diagonal segment the bands of its manhattanised quad plus
// its two joint squares. Like Polygon.ApplyBands it allocates nothing.
func (w Wire) ApplyBands(t Transform, grid int64) int64 {
	if len(w.Path) == 0 || w.Width <= 0 {
		return 0
	}
	n := int64(1)
	for i := 0; i+1 < len(w.Path); i++ {
		a, b := t.Apply(w.Path[i]), t.Apply(w.Path[i+1])
		if a.X == b.X || a.Y == b.Y {
			n++
			continue
		}
		// The quad's corners sit at most width/2 above and below the
		// segment's ends (see diagonalSegment).
		k := bandsBetween(min64(a.Y, b.Y)-w.Width/2, max64(a.Y, b.Y)+w.Width/2, grid)
		if k > math.MaxInt64-n-2 {
			return math.MaxInt64
		}
		n += k + 2
	}
	return n
}

// boxesInto is Boxes drawing scratch from sc. The path may alias
// sc.path; segments accumulate in sc.wire (kept separate from sc.out,
// which diagonal-segment manhattanisation consumes mid-loop).
func (w Wire) boxesInto(sc *BoxScratch, grid int64) []Rect {
	if len(w.Path) == 0 || w.Width <= 0 {
		return nil
	}
	h := w.Width / 2
	h2 := w.Width - h // handles odd widths
	out := sc.wire[:0]
	if len(w.Path) == 1 {
		p := w.Path[0]
		sc.wire = append(out, Rect{p.X - h, p.Y - h, p.X + h2, p.Y + h2})
		return sc.wire
	}
	for i := 0; i+1 < len(w.Path); i++ {
		a, b := w.Path[i], w.Path[i+1]
		switch {
		case a.Y == b.Y: // horizontal
			x0, x1 := min64(a.X, b.X), max64(a.X, b.X)
			out = append(out, Rect{x0 - h, a.Y - h, x1 + h2, a.Y + h2})
		case a.X == b.X: // vertical
			y0, y1 := min64(a.Y, b.Y), max64(a.Y, b.Y)
			out = append(out, Rect{a.X - h, y0 - h, a.X + h2, y1 + h2})
		default: // diagonal: build the segment quad and manhattanise
			out = append(out, diagonalSegment(sc, a, b, w.Width, grid)...)
			// Square joints keep connectivity through the corner.
			out = append(out,
				Rect{a.X - h, a.Y - h, a.X + h2, a.Y + h2},
				Rect{b.X - h, b.Y - h, b.X + h2, b.Y + h2})
		}
	}
	sc.wire = out
	return canonicalizeInto(sc, out)
}

// diagonalSegment approximates a diagonal wire segment of the given
// width with grid-aligned boxes. The result is valid until the
// scratch's next use; the caller copies it out immediately.
func diagonalSegment(sc *BoxScratch, a, b Point, width, grid int64) []Rect {
	// Perpendicular offset: scale the perpendicular of (dx,dy) so its
	// longer component is width/2. This slightly over- or under-sizes
	// skewed segments, which is acceptable for an approximation the
	// designer opted into by drawing off-axis wires.
	dx, dy := b.X-a.X, b.Y-a.Y
	adx, ady := dx, dy
	if adx < 0 {
		adx = -adx
	}
	if ady < 0 {
		ady = -ady
	}
	m := max64(adx, ady)
	if m == 0 {
		return nil
	}
	px := -dy * (width / 2) / m
	py := dx * (width / 2) / m
	sc.quad = [4]Point{
		{a.X + px, a.Y + py},
		{b.X + px, b.Y + py},
		{b.X - px, b.Y - py},
		{a.X - px, a.Y - py},
	}
	return Polygon(sc.quad[:]).manhattanizeInto(sc, grid)
}

// Octagon returns the octagon inscribed in the circle of the given
// diameter centred at c; used to approximate CIF round flashes.
func Octagon(diameter int64, c Point) Polygon {
	r := diameter / 2
	// 5/12 ≈ tan(22.5°)·r ≈ 0.414·r gives a regular-ish octagon.
	k := r * 5 / 12
	return Polygon{
		{c.X + r, c.Y + k}, {c.X + k, c.Y + r},
		{c.X - k, c.Y + r}, {c.X - r, c.Y + k},
		{c.X - r, c.Y - k}, {c.X - k, c.Y - r},
		{c.X + k, c.Y - r}, {c.X + r, c.Y - k},
	}
}

func (pg Polygon) String() string {
	return fmt.Sprintf("Polygon%v", []Point(pg))
}
