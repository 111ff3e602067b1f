package scan

import (
	"sort"
	"testing"

	"ace/internal/tech"
)

// Stop batches at full scale are large: on the Table 5-1 chips at
// scale 1 a scanline stop carries ~130 boxes on average (riscb) and up
// to ~900, so the benchmark sizes span that range.
var stopBatchSizes = []struct {
	name string
	n    int
}{
	{"batch=32", 32},
	{"batch=128", 128},
	{"batch=1024", 1024},
}

// pseudoBatch produces a deterministic unsorted batch of boxes; a
// small LCG keeps the benchmark free of math/rand setup cost.
func pseudoBatch(n int) []abox {
	out := make([]abox, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range out {
		state = state*6364136223846793005 + 1442695040888963407
		x0 := int64(state>>40) % 10000
		out[i] = abox{x0: x0, x1: x0 + 50, bottom: -int64(i)}
	}
	return out
}

// BenchmarkBatchSortMerge measures the sweep's insertion path: a stop's
// boxes appended as they arrive, then one sort and a merge into the
// (here empty) active list in mergeNew.
func BenchmarkBatchSortMerge(b *testing.B) {
	for _, sz := range stopBatchSizes {
		batch := pseudoBatch(sz.n)
		b.Run(sz.name, func(b *testing.B) {
			b.ReportAllocs()
			s := &sweeper{}
			for i := 0; i < b.N; i++ {
				s.active[tech.Metal] = s.active[tech.Metal][:0]
				s.newGeom[tech.Metal] = append(s.newGeom[tech.Metal], batch...)
				s.mergeNew(tech.Metal)
			}
		})
	}
}

// BenchmarkBatchSplice measures the replaced approach for comparison:
// each box binary-searched into place as it arrives, which costs a
// memmove of the batch per box and so grows quadratically.
func BenchmarkBatchSplice(b *testing.B) {
	for _, sz := range stopBatchSizes {
		batch := pseudoBatch(sz.n)
		b.Run(sz.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]abox, 0, sz.n)
			for i := 0; i < b.N; i++ {
				buf = buf[:0]
				for _, nb := range batch {
					j := sort.Search(len(buf), func(k int) bool { return buf[k].x0 > nb.x0 })
					buf = append(buf, abox{})
					copy(buf[j+1:], buf[j:])
					buf[j] = nb
				}
			}
		})
	}
}
