// Package build is the allocation-conscious heart of the extractor:
// it accumulates the facts every engine discovers while walking a
// layout — net identity, device channels, gate and terminal contacts,
// labels, geometry — and finalises them into a netlist.
//
// All four engines (the scanline sweep, the hierarchical composer, the
// raster baseline and the region baseline) speak the same small API:
// allocate net/device elements, union them as connectivity emerges,
// attach facts keyed by element id. Element ids are int32 throughout
// and every fact lives in a flat contiguous arena — plain slices of
// small structs, appended in discovery order — so the hot path does no
// map operations and no per-fact allocations beyond slice growth.
// Identity is a path-compressed, union-by-size union-find in flat
// int32 slices (uf.Forest32). Facts are resolved against the forest
// once, in Finish, after all unions are known.
//
// Builders compose: Absorb splices one builder's elements and arenas
// into another with an id offset, which is how the parallel band sweep
// stitches independently built bands into one netlist.
//
// The zero value (optionally with KeepGeometry set) is ready for use.
package build

import (
	"fmt"
	"math"
	"sort"

	"ace/internal/geom"
	"ace/internal/netlist"
	"ace/internal/tech"
	"ace/internal/uf"
)

// Builder accumulates extraction facts; see the package comment.
type Builder struct {
	// KeepGeometry records the constituent rectangles of nets (via
	// AddNetGeometry) and device channels (via AddChannel) in the
	// output netlist.
	KeepGeometry bool

	nets uf.Forest32
	devs uf.Forest32

	// Per-net-element representative point; authoritative only at the
	// class root ("better" point: maximum Y, then minimum X — the
	// top-left-most entry of the net, matching ACE's reporting style).
	netLoc []geom.Point

	// Per-device-element accumulators; authoritative only at the root.
	// Unions fold the loser's values into the winner eagerly, so
	// Finish reads each root once.
	devArea []int64
	devImpl []int64
	devBBox []geom.Rect // sentinel emptyBBox until first channel/fact

	// Index into devGeom of the last channel rectangle recorded for
	// each device class (authoritative at the root, -1 when none):
	// lets AddChannel coalesce a top-down run of same-width strips
	// into the single box Figure 3-4 prints.
	devLastGeom []int32

	// Fact arenas, appended in discovery order and resolved in Finish.
	terms    []termRec
	gates    []gateRec
	names    []nameRec
	netGeom  []netGeomRec
	devGeom  []devGeomRec
	warnings []string

	// fin holds Finish's resolution scratch. It lives on the builder so
	// a pooled, Reset builder finalises repeatedly without growing the
	// heap; nothing in it survives into the returned netlist.
	fin finishScratch
}

// finishScratch is the per-Finish working memory: class→index tables,
// the terminal counting sort, and the name claim map.
type finishScratch struct {
	netOf, devOf []int32
	roots        []int32
	counts, pos  []int32
	flat         []flatTerm
	anomalous    []bool
	claimed      map[string]int32
}

type flatTerm struct {
	net  int32
	edge int64
}

// Reset clears the builder for reuse, keeping the capacity of every
// arena (and of Finish's scratch) so a steady-state workload of the
// same shape allocates nothing. The warnings slice is dropped rather
// than truncated: callers may hold the slice Warnings returned.
func (b *Builder) Reset() {
	b.KeepGeometry = false
	b.nets.Reset()
	b.devs.Reset()
	b.netLoc = b.netLoc[:0]
	b.devArea = b.devArea[:0]
	b.devImpl = b.devImpl[:0]
	b.devBBox = b.devBBox[:0]
	b.devLastGeom = b.devLastGeom[:0]
	b.terms = b.terms[:0]
	b.gates = b.gates[:0]
	b.names = b.names[:0]
	b.netGeom = b.netGeom[:0]
	b.devGeom = b.devGeom[:0]
	b.warnings = nil
}

// grow32 returns a length-n int32 slice, reusing s's backing array
// when it is large enough. Contents are unspecified; callers must
// write before they read.
func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

type termRec struct {
	dev, net int32
	edge     int64
}

type gateRec struct {
	dev, net int32
}

type nameRec struct {
	net  int32
	name string
}

type netGeomRec struct {
	net   int32
	layer tech.Layer
	rect  geom.Rect
}

type devGeomRec struct {
	dev  int32
	rect geom.Rect
}

// emptyBBox is the identity element for bounding-box union.
var emptyBBox = geom.Rect{
	XMin: math.MaxInt64, YMin: math.MaxInt64,
	XMax: math.MinInt64, YMax: math.MinInt64,
}

// FinishStats reports facts about finalisation.
type FinishStats struct {
	// GateAnomalies counts devices whose channel saw more than one
	// distinct gate net — malformed layouts the checker flags.
	GateAnomalies int
}

// betterLoc reports whether p is a better representative point than q:
// higher, then (at equal height) further left.
func betterLoc(p, q geom.Point) bool {
	return p.Y > q.Y || (p.Y == q.Y && p.X < q.X)
}

// ---- nets ----

// NewNet allocates a fresh net element whose representative point is
// at.
func (b *Builder) NewNet(at geom.Point) int32 {
	id := b.nets.Make()
	b.netLoc = append(b.netLoc, at)
	return id
}

// FindNet returns the canonical element of x's net.
func (b *Builder) FindNet(x int32) int32 { return b.nets.Find(x) }

// UnionNets merges the nets of x and y and returns the surviving
// canonical element. The merged net keeps the better representative
// point of the two.
func (b *Builder) UnionNets(x, y int32) int32 {
	rx, ry := b.nets.Find(x), b.nets.Find(y)
	if rx == ry {
		return rx
	}
	r := b.nets.Union(rx, ry)
	loser := rx
	if r == rx {
		loser = ry
	}
	if betterLoc(b.netLoc[loser], b.netLoc[r]) {
		b.netLoc[r] = b.netLoc[loser]
	}
	return r
}

// BetterLoc offers a candidate representative point for x's net; the
// net keeps it if it beats the current one. Engines that discover a
// net bottom-up (the region baseline) use this to converge on the same
// point the top-down sweep reports.
func (b *Builder) BetterLoc(x int32, p geom.Point) {
	r := b.nets.Find(x)
	if betterLoc(p, b.netLoc[r]) {
		b.netLoc[r] = p
	}
}

// NameNet attaches a user label to x's net. Duplicates are resolved in
// Finish: repeated names on one net collapse, and a name claimed by two
// different nets stays with the net that claimed it first (with a
// warning).
func (b *Builder) NameNet(x int32, name string) {
	b.names = append(b.names, nameRec{net: x, name: name})
}

// AddNetGeometry records one constituent rectangle of x's net. Callers
// gate this on KeepGeometry; the builder stores whatever it is given.
func (b *Builder) AddNetGeometry(x int32, layer tech.Layer, r geom.Rect) {
	b.netGeom = append(b.netGeom, netGeomRec{net: x, layer: layer, rect: r})
}

// NetElems returns the number of net elements allocated.
func (b *Builder) NetElems() int { return b.nets.Len() }

// ---- devices ----

// NewDev allocates a fresh device element.
func (b *Builder) NewDev() int32 {
	id := b.devs.Make()
	b.devArea = append(b.devArea, 0)
	b.devImpl = append(b.devImpl, 0)
	b.devBBox = append(b.devBBox, emptyBBox)
	b.devLastGeom = append(b.devLastGeom, -1)
	return id
}

// FindDev returns the canonical element of x's device.
func (b *Builder) FindDev(x int32) int32 { return b.devs.Find(x) }

// UnionDevs merges the devices of x and y — two channel regions found
// to be one transistor — and returns the surviving canonical element.
// Channel area, implant area and the bounding box accumulate onto the
// survivor.
func (b *Builder) UnionDevs(x, y int32) int32 {
	rx, ry := b.devs.Find(x), b.devs.Find(y)
	if rx == ry {
		return rx
	}
	r := b.devs.Union(rx, ry)
	loser := rx
	if r == rx {
		loser = ry
	}
	b.devArea[r] += b.devArea[loser]
	b.devImpl[r] += b.devImpl[loser]
	b.devBBox[r] = unionBBox(b.devBBox[r], b.devBBox[loser])
	if b.devLastGeom[loser] > b.devLastGeom[r] {
		b.devLastGeom[r] = b.devLastGeom[loser]
	}
	return r
}

// AddChannel accumulates one channel rectangle into x's device: its
// area counts toward the channel area, its extent toward the bounding
// box, and (under KeepGeometry) the rectangle itself is recorded.
func (b *Builder) AddChannel(x int32, r geom.Rect) {
	root := b.devs.Find(x)
	b.devArea[root] += (r.XMax - r.XMin) * (r.YMax - r.YMin)
	b.devBBox[root] = unionBBox(b.devBBox[root], r)
	if b.KeepGeometry {
		// A run of same-width strips walking down one channel column
		// coalesces into the single box the wirelist prints.
		if li := b.devLastGeom[root]; li >= 0 {
			last := &b.devGeom[li].rect
			if last.XMin == r.XMin && last.XMax == r.XMax && last.YMin == r.YMax {
				last.YMin = r.YMin
				return
			}
		}
		b.devLastGeom[root] = int32(len(b.devGeom))
		b.devGeom = append(b.devGeom, devGeomRec{dev: x, rect: r})
	}
}

// AddImplant accumulates implanted channel area onto x's device; the
// majority rule in Finish decides depletion vs enhancement.
func (b *Builder) AddImplant(x int32, area int64) {
	b.devImpl[b.devs.Find(x)] += area
}

// AddGate records that x's device saw gate as its gate net (in this
// strip, window or scanline). The first distinct gate net wins; any
// further distinct net counts as a gate anomaly in Finish — after all
// unions, so gates that merge later are not anomalies.
func (b *Builder) AddGate(x, gate int32) {
	b.gates = append(b.gates, gateRec{dev: x, net: gate})
}

// AddTerm records a source/drain contact: net touches x's device
// channel along edge length units of perimeter. Contacts with the
// same net accumulate in Finish.
func (b *Builder) AddTerm(x, net int32, edge int64) {
	b.terms = append(b.terms, termRec{dev: x, net: net, edge: edge})
}

// AddDeviceFacts feeds pre-aggregated device facts — channel area,
// implanted area and channel bounding box — directly into x's device.
// The hierarchical extractor uses this when flattening already
// extracted windows.
func (b *Builder) AddDeviceFacts(x int32, area, implArea int64, bbox geom.Rect) {
	root := b.devs.Find(x)
	b.devArea[root] += area
	b.devImpl[root] += implArea
	b.devBBox[root] = unionBBox(b.devBBox[root], bbox)
}

// DevElems returns the number of device elements allocated.
func (b *Builder) DevElems() int { return b.devs.Len() }

// Warnings returns the warnings accumulated so far (including those
// produced by Finish, once it has run).
func (b *Builder) Warnings() []string { return b.warnings }

func (b *Builder) warnf(format string, args ...any) {
	b.warnings = append(b.warnings, fmt.Sprintf(format, args...))
}

func unionBBox(a, r geom.Rect) geom.Rect {
	if r.XMin < a.XMin {
		a.XMin = r.XMin
	}
	if r.YMin < a.YMin {
		a.YMin = r.YMin
	}
	if r.XMax > a.XMax {
		a.XMax = r.XMax
	}
	if r.YMax > a.YMax {
		a.YMax = r.YMax
	}
	return a
}

// ---- composition ----

// Absorb splices o's elements, accumulators, fact arenas and warnings
// into b and returns the offsets added to o's net and device element
// ids (net element i of o is net element netOff+i of b, and likewise
// for devices). o is left untouched; the parallel sweep uses Absorb to
// merge per-band builders before stitching their seams.
func (b *Builder) Absorb(o *Builder) (netOff, devOff int32) {
	netOff = b.nets.Absorb(&o.nets)
	devOff = b.devs.Absorb(&o.devs)
	b.netLoc = append(b.netLoc, o.netLoc...)
	b.devArea = append(b.devArea, o.devArea...)
	b.devImpl = append(b.devImpl, o.devImpl...)
	b.devBBox = append(b.devBBox, o.devBBox...)
	geomOff := int32(len(b.devGeom))
	for _, lg := range o.devLastGeom {
		if lg >= 0 {
			lg += geomOff
		}
		b.devLastGeom = append(b.devLastGeom, lg)
	}
	for _, t := range o.terms {
		b.terms = append(b.terms, termRec{dev: t.dev + devOff, net: t.net + netOff, edge: t.edge})
	}
	for _, g := range o.gates {
		b.gates = append(b.gates, gateRec{dev: g.dev + devOff, net: g.net + netOff})
	}
	for _, n := range o.names {
		b.names = append(b.names, nameRec{net: n.net + netOff, name: n.name})
	}
	for _, g := range o.netGeom {
		b.netGeom = append(b.netGeom, netGeomRec{net: g.net + netOff, layer: g.layer, rect: g.rect})
	}
	for _, g := range o.devGeom {
		b.devGeom = append(b.devGeom, devGeomRec{dev: g.dev + devOff, rect: g.rect})
	}
	b.warnings = append(b.warnings, o.warnings...)
	return netOff, devOff
}

// ---- finalisation ----

// Finish resolves every fact against the final union-find state and
// builds the output netlist. Ordering is deterministic: nets and
// devices appear in order of their class's first-allocated element, so
// two identical runs produce byte-identical netlists.
func (b *Builder) Finish() (*netlist.Netlist, FinishStats) {
	var fs FinishStats
	nl := &netlist.Netlist{}

	// Net classes → output indices, in first-element order. The table
	// is reused scratch: roots are marked -1 up front and every entry
	// is written before it is read, so stale contents are harmless.
	netOf := grow32(b.fin.netOf, b.nets.Len())
	b.fin.netOf = netOf
	for e := int32(0); e < int32(len(netOf)); e++ {
		netOf[e] = 0
		if b.nets.Find(e) == e {
			netOf[e] = -1 // filled below
		}
	}
	nl.Nets = make([]netlist.Net, 0, b.nets.Sets())
	for e := int32(0); e < int32(len(netOf)); e++ {
		root := b.nets.Find(e)
		if netOf[root] < 0 {
			netOf[root] = int32(len(nl.Nets))
			nl.Nets = append(nl.Nets, netlist.Net{Location: b.netLoc[root]})
		}
		netOf[e] = netOf[root]
	}

	b.resolveNames(nl, netOf)

	for _, g := range b.netGeom {
		n := &nl.Nets[netOf[g.net]]
		n.Geometry = append(n.Geometry, netlist.LayerRect{Layer: g.layer, Rect: g.rect})
	}

	// Device classes → output indices, in first-element order.
	devOf := grow32(b.fin.devOf, b.devs.Len())
	b.fin.devOf = devOf
	roots := b.fin.roots[:0]
	for e := int32(0); e < int32(len(devOf)); e++ {
		devOf[e] = -1
	}
	for e := int32(0); e < int32(len(devOf)); e++ {
		root := b.devs.Find(e)
		if devOf[root] < 0 {
			devOf[root] = int32(len(roots))
			roots = append(roots, root)
		}
		devOf[e] = devOf[root]
	}
	b.fin.roots = roots

	nl.Devices = make([]netlist.Device, len(roots))
	for i, root := range roots {
		d := &nl.Devices[i]
		d.Gate = -1
		d.Area = b.devArea[root]
		d.ImplArea = b.devImpl[root]
		if bb := b.devBBox[root]; bb.XMin <= bb.XMax {
			d.Location = geom.Pt(bb.XMin, bb.YMax)
		}
	}

	// Gates: first distinct net wins; any further distinct net is an
	// anomaly. Resolved after all unions, so late merges are benign.
	if cap(b.fin.anomalous) < len(roots) {
		b.fin.anomalous = make([]bool, len(roots))
	}
	anomalous := b.fin.anomalous[:len(roots)]
	for i := range anomalous {
		anomalous[i] = false
	}
	for _, g := range b.gates {
		di := devOf[g.dev]
		net := int(netOf[g.net])
		d := &nl.Devices[di]
		switch {
		case d.Gate < 0:
			d.Gate = net
		case d.Gate != net && !anomalous[di]:
			anomalous[di] = true
			fs.GateAnomalies++
		}
	}

	b.resolveTerminals(nl, netOf, devOf)

	for _, g := range b.devGeom {
		d := &nl.Devices[devOf[g.dev]]
		d.Geometry = append(d.Geometry, g.rect)
	}

	for i := range nl.Devices {
		b.finishDevice(&nl.Devices[i])
	}
	return nl, fs
}

// resolveNames applies the label arena: per-net duplicates collapse, a
// name claimed by two different nets stays with the first claimant.
func (b *Builder) resolveNames(nl *netlist.Netlist, netOf []int32) {
	if len(b.names) == 0 {
		return
	}
	if b.fin.claimed == nil {
		b.fin.claimed = make(map[string]int32, len(b.names))
	} else {
		clear(b.fin.claimed)
	}
	claimed := b.fin.claimed
	for _, nr := range b.names {
		ni := netOf[nr.net]
		if prev, ok := claimed[nr.name]; ok {
			if prev != ni {
				b.warnf("label %q already names net %d; ignoring the binding to net %d (first label wins)",
					nr.name, prev, ni)
			}
			continue
		}
		claimed[nr.name] = ni
		nl.Nets[ni].Names = append(nl.Nets[ni].Names, nr.name)
	}
	for i := range nl.Nets {
		if len(nl.Nets[i].Names) > 1 {
			sort.Strings(nl.Nets[i].Names)
		}
	}
}

// resolveTerminals merges the contact arena per (device, net) and
// attaches the merged terminals sorted by descending contact edge
// (ties broken by ascending net index).
func (b *Builder) resolveTerminals(nl *netlist.Netlist, netOf, devOf []int32) {
	if len(b.terms) == 0 {
		return
	}
	// Bucket terms by output device with a counting sort: the arena is
	// in discovery order, which interleaves devices.
	counts := grow32(b.fin.counts, len(nl.Devices)+1)
	b.fin.counts = counts
	for i := range counts {
		counts[i] = 0
	}
	for _, t := range b.terms {
		counts[devOf[t.dev]+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	if cap(b.fin.flat) < len(b.terms) {
		b.fin.flat = make([]flatTerm, len(b.terms))
	}
	flat := b.fin.flat[:len(b.terms)]
	next := counts[:len(nl.Devices)]
	pos := grow32(b.fin.pos, len(next))
	b.fin.pos = pos
	copy(pos, next)
	for _, t := range b.terms {
		di := devOf[t.dev]
		flat[pos[di]] = flatTerm{net: netOf[t.net], edge: t.edge}
		pos[di]++
	}
	// All devices' terminals come out of one backing array (merging
	// only shrinks buckets, so len(flat) bounds the total): one output
	// allocation instead of one per device.
	backing := make([]netlist.Terminal, 0, len(flat))
	for i := range nl.Devices {
		lo, hi := counts[i], counts[i+1]
		if lo == hi {
			continue
		}
		bucket := flat[lo:hi]
		// Merge same-net contacts in place; device fan-in is tiny, so
		// the quadratic scan beats any map.
		w := 0
		for _, t := range bucket {
			merged := false
			for k := 0; k < w; k++ {
				if bucket[k].net == t.net {
					bucket[k].edge += t.edge
					merged = true
					break
				}
			}
			if !merged {
				bucket[w] = t
				w++
			}
		}
		bucket = bucket[:w]
		sortFlatTerms(bucket)
		start := len(backing)
		for _, t := range bucket {
			backing = append(backing, netlist.Terminal{Net: int(t.net), Edge: t.edge})
		}
		nl.Devices[i].Terminals = backing[start:len(backing):len(backing)]
	}
}

// sortFlatTerms orders one device's terminals by descending contact
// edge, ties broken by ascending net index — the same total order the
// stdlib stable sort produced, without its per-call reflection
// allocations (reflectlite.Swapper was the steady-state loop's single
// hottest allocation site). Buckets hold a handful of terminals, so
// insertion sort is also the fastest choice; it is stable, keeping
// duplicate (edge, net) pairs in discovery order.
func sortFlatTerms(bucket []flatTerm) {
	for i := 1; i < len(bucket); i++ {
		t := bucket[i]
		j := i - 1
		for j >= 0 && (bucket[j].edge < t.edge || (bucket[j].edge == t.edge && bucket[j].net > t.net)) {
			bucket[j+1] = bucket[j]
			j--
		}
		bucket[j+1] = t
	}
}

// finishDevice derives a device's electrical identity from its merged
// facts: source/drain selection, the paper's width/length formula, and
// the type rules (implant majority → depletion; every terminal on the
// gate net → capacitor).
func (b *Builder) finishDevice(d *netlist.Device) {
	gateOnly := true
	for _, t := range d.Terminals {
		if t.Net != d.Gate {
			gateOnly = false
			break
		}
	}
	switch {
	case len(d.Terminals) >= 2:
		d.Source = d.Terminals[0].Net
		d.Drain = d.Terminals[1].Net
		d.Width = (d.Terminals[0].Edge + d.Terminals[1].Edge) / 2
	case len(d.Terminals) == 1:
		d.Source = d.Terminals[0].Net
		d.Drain = d.Terminals[0].Net
		d.Width = d.Terminals[0].Edge
	default:
		// A channel no conducting diffusion ever touched: a floating
		// capacitor plate. Report it gate-to-gate; the width fallback
		// below keeps the size positive.
		d.Source = d.Gate
		d.Drain = d.Gate
	}
	if gateOnly {
		d.Type = tech.Capacitor
		d.Source = d.Gate
		d.Drain = d.Gate
	} else if 2*d.ImplArea > d.Area {
		d.Type = tech.Depletion
	} else {
		d.Type = tech.Enhancement
	}
	if d.Width <= 0 {
		// Degenerate contact data; fall back to the drawn extent so
		// the netlist stays valid.
		d.Width = max64(1, isqrt(d.Area))
	}
	d.Length = d.Area / d.Width
	if d.Length <= 0 {
		d.Length = 1
	}
}

func isqrt(a int64) int64 {
	if a <= 0 {
		return 0
	}
	r := int64(math.Sqrt(float64(a)))
	for r*r > a {
		r--
	}
	for (r+1)*(r+1) <= a {
		r++
	}
	return r
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
