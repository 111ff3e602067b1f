// Package uf implements a growable union-find (disjoint-set) structure
// with path compression and union by rank. The extractor uses it for
// net equivalence: two pieces of geometry found to be electrically
// connected have their net classes unioned; the class representative
// surviving at the end of the sweep becomes the net's identity.
package uf

import "slices"

// Forest is a union-find over dense integer ids allocated by Make.
// The zero value is an empty forest ready for use.
type Forest struct {
	parent []int32
	rank   []int8
	sets   int
}

// Make allocates a fresh singleton set and returns its id.
func (f *Forest) Make() int {
	id := len(f.parent)
	f.parent = append(f.parent, int32(id))
	f.rank = append(f.rank, 0)
	f.sets++
	return id
}

// Len returns the number of ids allocated so far.
func (f *Forest) Len() int { return len(f.parent) }

// Sets returns the number of distinct sets.
func (f *Forest) Sets() int { return f.sets }

// Find returns the canonical representative of x's set.
func (f *Forest) Find(x int) int {
	root := x
	for int(f.parent[root]) != root {
		root = int(f.parent[root])
	}
	for int(f.parent[x]) != root {
		x, f.parent[x] = int(f.parent[x]), int32(root)
	}
	return root
}

// Union merges the sets containing x and y and returns the resulting
// representative.
func (f *Forest) Union(x, y int) int {
	rx, ry := f.Find(x), f.Find(y)
	if rx == ry {
		return rx
	}
	if f.rank[rx] < f.rank[ry] {
		rx, ry = ry, rx
	}
	f.parent[ry] = int32(rx)
	if f.rank[rx] == f.rank[ry] {
		f.rank[rx]++
	}
	f.sets--
	return rx
}

// Same reports whether x and y are in the same set.
func (f *Forest) Same(x, y int) bool { return f.Find(x) == f.Find(y) }

// Reset restores the forest to the empty state, retaining capacity.
// The modified ACE used by the hierarchical extractor relies on cheap
// re-initialisation between windows (HEXT §3); Reset provides it.
func (f *Forest) Reset() {
	f.parent = f.parent[:0]
	f.rank = f.rank[:0]
	f.sets = 0
}

// Forest32 is a union-find over dense int32 ids with path compression
// and union by size, kept in two flat int32 slices. It is the variant
// the extractor's builder uses on its hot path: ids stay int32
// end-to-end (no int conversions), the size array doubles as the
// class-cardinality table, and a whole forest can be absorbed into
// another in O(n) copies — which is what stitches per-band builders
// together in the parallel sweep. The zero value is ready for use.
type Forest32 struct {
	parent []int32
	size   []int32
	sets   int
}

// Make allocates a fresh singleton set and returns its id.
func (f *Forest32) Make() int32 {
	id := int32(len(f.parent))
	f.parent = append(f.parent, id)
	f.size = append(f.size, 1)
	f.sets++
	return id
}

// Reserve grows the forest's capacity so the next n Makes (or one
// Grow(n)) allocate no memory. Growth is amortised like append's, so a
// run of small Reserves copies the forest O(log n) times, not once per
// call. It never shrinks and never changes the forest's contents.
func (f *Forest32) Reserve(n int) {
	f.parent = slices.Grow(f.parent, n)
	f.size = slices.Grow(f.size, n)
}

// Grow allocates n fresh singletons at once and returns the first id.
func (f *Forest32) Grow(n int) int32 {
	first := int32(len(f.parent))
	for i := 0; i < n; i++ {
		f.parent = append(f.parent, first+int32(i))
		f.size = append(f.size, 1)
	}
	f.sets += n
	return first
}

// Len returns the number of ids allocated so far.
func (f *Forest32) Len() int { return len(f.parent) }

// Sets returns the number of distinct sets.
func (f *Forest32) Sets() int { return f.sets }

// Find returns the canonical representative of x's set.
func (f *Forest32) Find(x int32) int32 {
	root := x
	for f.parent[root] != root {
		root = f.parent[root]
	}
	for f.parent[x] != root {
		x, f.parent[x] = f.parent[x], root
	}
	return root
}

// Union merges the sets containing x and y and returns the surviving
// representative (the root of the larger class).
func (f *Forest32) Union(x, y int32) int32 {
	rx, ry := f.Find(x), f.Find(y)
	if rx == ry {
		return rx
	}
	if f.size[rx] < f.size[ry] {
		rx, ry = ry, rx
	}
	f.parent[ry] = rx
	f.size[rx] += f.size[ry]
	f.sets--
	return rx
}

// Same reports whether x and y are in the same set.
func (f *Forest32) Same(x, y int32) bool { return f.Find(x) == f.Find(y) }

// Absorb appends every element of o into f, preserving o's set
// structure, and returns the offset added to o's ids: element i of o
// becomes element offset+i of f. o is not modified.
func (f *Forest32) Absorb(o *Forest32) int32 {
	off := int32(len(f.parent))
	for _, p := range o.parent {
		f.parent = append(f.parent, p+off)
	}
	f.size = append(f.size, o.size...)
	f.sets += o.sets
	return off
}

// Reset restores the forest to the empty state, retaining capacity.
func (f *Forest32) Reset() {
	f.parent = f.parent[:0]
	f.size = f.size[:0]
	f.sets = 0
}
