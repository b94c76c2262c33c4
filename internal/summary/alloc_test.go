//go:build !race

package summary

import (
	"math/rand"
	"testing"
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
