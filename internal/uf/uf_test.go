package uf

import (
	"math/rand"
	"testing"
)

func TestBasic(t *testing.T) {
	var f Forest
	a, b, c := f.Make(), f.Make(), f.Make()
	if f.Sets() != 3 || f.Len() != 3 {
		t.Fatalf("Sets=%d Len=%d", f.Sets(), f.Len())
	}
	if f.Same(a, b) {
		t.Fatal("fresh sets should differ")
	}
	f.Union(a, b)
	if !f.Same(a, b) || f.Same(a, c) {
		t.Fatal("union wrong")
	}
	if f.Sets() != 2 {
		t.Fatalf("Sets=%d after one union", f.Sets())
	}
	// Union of already-joined sets must not change the count.
	f.Union(b, a)
	if f.Sets() != 2 {
		t.Fatalf("Sets=%d after redundant union", f.Sets())
	}
}

func TestFindIsCanonical(t *testing.T) {
	var f Forest
	ids := make([]int, 100)
	for i := range ids {
		ids[i] = f.Make()
	}
	for i := 1; i < len(ids); i++ {
		f.Union(ids[i-1], ids[i])
	}
	root := f.Find(ids[0])
	for _, id := range ids {
		if f.Find(id) != root {
			t.Fatalf("id %d has root %d, want %d", id, f.Find(id), root)
		}
	}
	if f.Sets() != 1 {
		t.Fatalf("Sets=%d", f.Sets())
	}
}

func TestAgainstNaive(t *testing.T) {
	// Randomised differential test against a brute-force partition.
	rng := rand.New(rand.NewSource(42))
	var f Forest
	const n = 200
	naive := make([]int, n)
	for i := 0; i < n; i++ {
		f.Make()
		naive[i] = i
	}
	relabel := func(from, to int) {
		for i := range naive {
			if naive[i] == from {
				naive[i] = to
			}
		}
	}
	for step := 0; step < 500; step++ {
		x, y := rng.Intn(n), rng.Intn(n)
		f.Union(x, y)
		relabel(naive[x], naive[y])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if f.Same(i, j) != (naive[i] == naive[j]) {
				t.Fatalf("Same(%d,%d)=%v, naive=%v", i, j, f.Same(i, j), naive[i] == naive[j])
			}
		}
	}
	// Count distinct naive labels and compare with Sets.
	labels := map[int]bool{}
	for _, l := range naive {
		labels[l] = true
	}
	if f.Sets() != len(labels) {
		t.Fatalf("Sets=%d, naive=%d", f.Sets(), len(labels))
	}
}

func TestReset(t *testing.T) {
	var f Forest
	f.Make()
	f.Make()
	f.Union(0, 1)
	f.Reset()
	if f.Len() != 0 || f.Sets() != 0 {
		t.Fatal("Reset did not clear")
	}
	a := f.Make()
	b := f.Make()
	if f.Same(a, b) {
		t.Fatal("sets joined after Reset")
	}
}

func TestForest32Basics(t *testing.T) {
	var f Forest32
	a, b, c := f.Make(), f.Make(), f.Make()
	if f.Len() != 3 || f.Sets() != 3 {
		t.Fatalf("Len=%d Sets=%d", f.Len(), f.Sets())
	}
	r := f.Union(a, b)
	if !f.Same(a, b) || f.Same(a, c) || f.Sets() != 2 {
		t.Fatal("union wrong")
	}
	if f.Find(a) != r || f.Find(b) != r {
		t.Fatal("find wrong")
	}
	// Union by size: the bigger class's root survives.
	if got := f.Union(c, a); got != r {
		t.Fatalf("size union kept %d, want %d", got, r)
	}
}

func TestForest32Grow(t *testing.T) {
	var f Forest32
	first := f.Grow(5)
	if first != 0 || f.Len() != 5 || f.Sets() != 5 {
		t.Fatalf("Grow: first=%d Len=%d Sets=%d", first, f.Len(), f.Sets())
	}
	f.Make()
	if f.Len() != 6 {
		t.Fatal("Make after Grow")
	}
}

func TestForest32Absorb(t *testing.T) {
	var a, b Forest32
	a.Make()
	a.Make()
	a.Union(0, 1)
	x, y, z := b.Make(), b.Make(), b.Make()
	b.Union(x, y)
	off := a.Absorb(&b)
	if off != 2 {
		t.Fatalf("offset = %d, want 2", off)
	}
	if a.Len() != 5 || a.Sets() != 3 {
		t.Fatalf("Len=%d Sets=%d after absorb", a.Len(), a.Sets())
	}
	if !a.Same(x+off, y+off) || a.Same(x+off, z+off) || a.Same(0, x+off) {
		t.Fatal("absorbed structure wrong")
	}
	// b untouched.
	if b.Len() != 3 || !b.Same(x, y) {
		t.Fatal("source forest modified")
	}
}

// TestForest32ReserveAmortised pins Reserve's growth policy: a run of
// n one-element Reserves each followed by a Make must reallocate the
// arrays O(log n) times, as append does. Growing to exactly len+1
// would copy the whole forest on every call, O(n²) in total.
func TestForest32ReserveAmortised(t *testing.T) {
	const n = 1 << 16
	var f Forest32
	reallocs := 0
	for i := 0; i < n; i++ {
		pc, sc := cap(f.parent), cap(f.size)
		f.Reserve(1)
		if cap(f.parent) != pc {
			reallocs++
		}
		if cap(f.size) != sc {
			reallocs++
		}
		if id := f.Make(); id != int32(i) {
			t.Fatalf("Make = %d, want %d", id, i)
		}
	}
	// Two arrays, each growing by at least 1.25× past small sizes:
	// about 35 apiece for n = 2^16. Exact-size growth gives 2n.
	if limit := 2 * 4 * 16; reallocs > limit {
		t.Fatalf("%d Reserve(1)+Make calls reallocated %d times, want ≤ %d", n, reallocs, limit)
	}
	if f.Len() != n || f.Sets() != n || f.Find(n-1) != n-1 {
		t.Fatalf("Len=%d Sets=%d after %d Makes", f.Len(), f.Sets(), n)
	}
}

// TestForest32ReserveNoAlloc checks Reserve's contract: after
// Reserve(k) the next k Makes never move the arrays.
func TestForest32ReserveNoAlloc(t *testing.T) {
	var f Forest32
	f.Grow(10)
	f.Union(3, 7)
	f.Reserve(100)
	p, s := &f.parent[:cap(f.parent)][0], &f.size[:cap(f.size)][0]
	for i := 0; i < 100; i++ {
		f.Make()
	}
	if &f.parent[0] != p || &f.size[0] != s {
		t.Fatal("Makes after Reserve reallocated")
	}
	if !f.Same(3, 7) || f.Sets() != 109 {
		t.Fatal("Reserve changed the forest's contents")
	}
}
