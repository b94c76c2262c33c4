//go:build !race

package store

import (
	"math/rand"
	"testing"

	"mind/internal/schema"
)

// TestAllocBudgetShardedInsert is the CI alloc gate on the store write
// path, carries INCLUDED: an insert between carries allocates nothing
// (routing hash + row copy + atomic length store), and a carry allocates
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
		if s := e.Shape()[0]; s.Carries != inserts/tailRows {
			t.Fatalf("%d carries over %d inserts, want %d", s.Carries, inserts, inserts/tailRows)
		}
	})
	if per := allocs / inserts; per > 0.05 {
		t.Fatalf("insert path allocates %.4f per record (%.0f over %d inserts incl. carries), budget is 0.05", per, allocs, inserts)
	}
}
