//go:build !race

package summary

import (
	"math/rand"
	"testing"

	"mind/internal/schema"
)

// TestAllocBudgetMergeMany: a merge allocates the entries it keeps and
// nothing else — its accumulators and key index come from a pool, not a
// map per call — and what it keeps sits in a slice of exactly that size,
// so a truncating merge does not pin the whole union behind its K
// entries. Four full sketches over mostly distinct keys make a union of
// about 4K entries; every merge truncates it to K.
func TestAllocBudgetMergeMany(t *testing.T) {
	const k = 32
	r := rand.New(rand.NewSource(3))
	parts := make([]*Sketch, 4)
	for i := range parts {
		parts[i] = NewSketch(k)
		for j := 0; j < 20*k; j++ {
			parts[i].Offer(uint64(r.Intn(1 << 20)))
		}
	}
	var s *Sketch
	allocs := testing.AllocsPerRun(100, func() {
		s = NewSketch(k)
		s.MergeMany(parts)
	})
	if allocs > 2 {
		t.Fatalf("MergeMany of %d parts allocates %.0f times; the sketch and its kept entries are the budget (2)", len(parts), allocs)
	}
	if s.Len() != k || cap(s.entries) != k {
		t.Fatalf("merge kept %d entries in a slice of capacity %d, want %d in %d", s.Len(), cap(s.entries), k, k)
	}
}

// TestAllocBudgetRollupFold: once every cell a stream reaches holds a
// slot, folding allocates nothing — a fold updates the cells' counts,
// sums and sketches in place, merges into the slot itself, partitions
// the delta where it stands and reuses it. Each measured run inserts
// DeltaMax records, exactly one fold, drawn from the records that warmed
// the rollup up, so every cell they reach exists; shuffled, so the fold
// offers to the cells that get fewer than K records and merges the few
// near the root that get more. A path-copying fold allocated a node,
// sums and a sketch per touched cell.
func TestAllocBudgetRollupFold(t *testing.T) {
	sch := timeSchema()
	s := New(sch, Options{})
	r := rand.New(rand.NewSource(59))
	recs := make([]schema.Record, 16*DefaultDeltaMax)
	for i := range recs {
		recs[i] = randRec(r)
		s.Insert(recs[i])
	}
	batch := recs[:DefaultDeltaMax]
	_, _, before := s.Stats()
	allocs := testing.AllocsPerRun(20, func() {
		for _, rec := range batch {
			s.Insert(rec)
		}
	})
	if _, deltaN, after := s.Stats(); after-before != 21 || deltaN != 0 {
		t.Fatalf("%d folds over 21 runs, %d records left in the delta: each run should fold once", after-before, deltaN)
	}
	if allocs != 0 {
		t.Fatalf("folding %d records into a warm rollup allocates %.1f times; the budget is 0", len(batch), allocs)
	}
}
