//go:build !race

package store

import (
	"math/rand"
	"runtime"
	"testing"

	"mind/internal/schema"
	"mind/internal/summary"
)

// TestAllocBudgetShardedInsert is the CI alloc gate on the store write
// path, carries INCLUDED: an insert between carries allocates nothing
// (row copy + atomic length store), and a carry allocates
// a constant handful whatever its size — the new arena, its cuts, the
// Static, the snapshot, the level slice and the next tail — so over 16
// carries of every size from 256 to 4096 rows the amortised cost stays
// under 0.05 allocations per record.
func TestAllocBudgetShardedInsert(t *testing.T) {
	const inserts = 4096
	r := rand.New(rand.NewSource(46))
	recs := make([]schema.Record, inserts)
	for i := range recs {
		recs[i] = randRec(r)
	}
	allocs := testing.AllocsPerRun(5, func() {
		e := NewSharded(sch3(), Options{})
		for _, rec := range recs {
			e.Insert(rec)
		}
		if s := e.Shape(); s.Carries != inserts/tailRows {
			t.Fatalf("%d carries over %d inserts, want %d", s.Carries, inserts, inserts/tailRows)
		}
	})
	if per := allocs / inserts; per > 0.05 {
		t.Fatalf("insert path allocates %.4f per record (%.0f over %d inserts incl. carries), budget is 0.05", per, allocs, inserts)
	}
}

// TestAllocBudgetAppendInsert is the alloc gate on an appending
// ladder's write path (Options.Append): an insert between seals
// allocates nothing, and a seal allocates only the fresh tail — its
// arena, its header, the Static naming the sealed arena and the snapshot
// publishing both; the level list grows in place. No seal copies or
// indexes a row, so over 16 seals the bytes allocated stay within a
// quarter above the 16 tail arenas themselves; a seal that copied its
// tail into a fresh level would double them.
func TestAllocBudgetAppendInsert(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	recs := make([]schema.Record, 16*tailRows)
	for i := range recs {
		recs[i] = randRec(r)
	}
	e := NewSharded(sch3(), Options{Append: true})
	e.Insert(recs[0]) // the first tail
	k := 1
	if allocs := testing.AllocsPerRun(tailRows/2, func() { e.Insert(recs[k]); k++ }); allocs != 0 {
		t.Fatalf("an insert between seals allocates %.2f times, want 0", allocs)
	}

	// One run is one tail's worth of inserts, so one seal.
	e = NewSharded(sch3(), Options{Append: true})
	k = 0
	perSeal := testing.AllocsPerRun(15, func() {
		for _, rec := range recs[k*tailRows : (k+1)*tailRows] {
			e.Insert(rec)
		}
		k++
	})
	if s := e.Shape(); len(s.Levels) != 16 || s.Carries != 0 {
		t.Fatalf("fixture: %+v, want 16 sealed levels", s)
	}
	if perSeal > 5 {
		t.Fatalf("a seal allocates %.0f times; budget is 4 and the level list's amortised growth", perSeal)
	}

	var before, after runtime.MemStats
	e = NewSharded(sch3(), Options{Append: true})
	runtime.ReadMemStats(&before)
	for _, rec := range recs {
		e.Insert(rec)
	}
	runtime.ReadMemStats(&after)
	tailBytes := uint64(tailRows * sch3().Arity() * 8)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("16 seals: %.0f allocations each, %d bytes in all (tail arena %d bytes)", perSeal, bytes, tailBytes)
	if bytes > 17*tailBytes*5/4 {
		t.Fatalf("16 seals allocated %d bytes; their 17 tail arenas are %d: a seal copies rows", bytes, 17*tailBytes)
	}
}

// TestAllocBudgetRollupInsert: an engine that carries a rollup hands it
// the tail row it just published, and the rollup publishes its delta as
// the ladder publishes its tail — a row view written into a fixed array
// and a new length stored — so a primary insert between carries
// allocates nothing. What the run allocates is a constant handful: the
// engine and its rollup (8), the first insert's tail and delta arrays
// and the snapshots publishing them (6). One allocation per record —
// a record copy, a snapshot per insert, a regrown delta — puts it past 1.
func TestAllocBudgetRollupInsert(t *testing.T) {
	const inserts = tailRows - 1 // no carry, no DeltaMax fold: the insert path alone
	r := rand.New(rand.NewSource(47))
	recs := make([]schema.Record, inserts)
	for i := range recs {
		recs[i] = randRec(r)
	}
	allocs := testing.AllocsPerRun(5, func() {
		e := NewSharded(sch3(), Options{Rollup: &summary.Options{}})
		for _, rec := range recs {
			e.Insert(rec)
		}
	})
	if per := allocs / inserts; per > 0.1 {
		t.Fatalf("rollup-carrying insert allocates %.3f per record (%.0f over %d inserts); a constant handful is the budget (0.1 per record), one allocation per insert makes it > 1", per, allocs, inserts)
	}
}

// TestAllocBudgetBoundaryFold is the alloc gate on the aggregate
// boundary path: folding boundary cells in place must not allocate per
// record. The same unaligned rectangle is resolved over the same cut
// geometry and key universe at n and 8n records; the materializing path
// this replaced allocated (and regrew) one result slice per boundary
// cell, so its count climbed with n.
func TestAllocBudgetBoundaryFold(t *testing.T) {
	sch := sch3()
	// Every dim cuts through leaf cells: the whole answer is boundary.
	rect := schema.Rect{Lo: []uint64{13, 1017, 21}, Hi: []uint64{9001, 8111, 9777}}
	measure := func(n int) (allocs float64, boundaryRecs uint64) {
		eng := NewSharded(sch, Options{Rollup: &summary.Options{}})
		r := rand.New(rand.NewSource(5))
		for i := 0; i < n; i++ {
			eng.Insert(schema.Record{uint64(r.Intn(1000)) * 10, uint64(r.Intn(10000)), uint64(r.Intn(10000)), 1})
		}
		eng.Compact()
		resolve := func() uint64 {
			out := summary.NewAgg(sch.Arity(), 8)
			fold := summary.NewFold(sch.Arity())
			parts := summary.ResolveShard(eng.Rollup(), rect, eng.VisitBatches, fold, nil)
			boundary := fold.Count
			for _, p := range parts {
				boundary -= p.N()
			}
			out.MergeShards(parts, fold)
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
