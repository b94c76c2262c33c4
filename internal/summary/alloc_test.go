//go:build !race

package summary

import (
	"math/rand"
	"testing"

	"mind/internal/schema"
	"mind/internal/store"
)

// TestAllocBudgetBoundaryFold is the alloc gate on the aggregate
// boundary path: folding boundary cells in place must not allocate per
// record. The same unaligned rectangle is resolved over the same cut
// geometry and key universe at n and 8n records; the materializing path
// this replaced allocated (and regrew) one result slice per boundary
// cell, so its count climbed with n.
func TestAllocBudgetBoundaryFold(t *testing.T) {
	sch := testSchema()
	// Every dim cuts through leaf cells: the whole answer is boundary.
	rect := schema.Rect{Lo: []uint64{13, 1017, 21}, Hi: []uint64{9001, 8111, 9777}}
	measure := func(n int) (allocs float64, boundaryRecs uint64) {
		eng := store.NewSharded(sch, store.Options{})
		sum := New(sch, Options{})
		r := rand.New(rand.NewSource(5))
		for i := 0; i < n; i++ {
			rec := schema.Record{uint64(r.Intn(1000)) * 10, uint64(r.Intn(10000)), uint64(r.Intn(10000)), 1}
			eng.Insert(rec)
			sum.Insert(rec)
		}
		eng.Compact()
		sum.Fold()
		resolve := func() uint64 {
			out := NewAgg(sch.Arity(), 8)
			fold := NewFold(sch.Arity())
			cover := ResolveShard(sum, rect, shardVisitor(eng, 0), fold)
			boundary := fold.Count - cover.N()
			out.MergeShards([]*Sketch{cover}, fold)
			if out.Count != uint64(eng.Count(rect)) {
				t.Fatalf("n=%d: fold count %d, store count %d", n, out.Count, eng.Count(rect))
			}
			return boundary
		}
		boundaryRecs = resolve()
		return testing.AllocsPerRun(20, func() { resolve() }), boundaryRecs
	}
	small, smallRecs := measure(4000)
	large, largeRecs := measure(32000)
	if largeRecs < 4*smallRecs || smallRecs < 500 {
		t.Fatalf("boundary records %d → %d: the fixture no longer scales the boundary", smallRecs, largeRecs)
	}
	t.Logf("allocs %.0f over %d boundary records, %.0f over %d", small, smallRecs, large, largeRecs)
	if large > small {
		t.Fatalf("boundary fold allocations grew with the boundary: %.0f allocs over %d records, %.0f over %d",
			small, smallRecs, large, largeRecs)
	}
}
