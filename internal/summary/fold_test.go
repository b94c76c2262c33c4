package summary

import (
	"math/rand"
	"slices"
	"testing"
)

// partReference is Tally.Part as it was before the one-pass heap: copy
// every distinct key out, quickselect the k first in canonical order,
// take the largest of the rest as the floor. It is the oracle the heap
// version is held to.
func partReference(t *Tally, k int) *Sketch {
	entries := make([]Entry, 0, len(t.occ))
	for _, s := range t.slots {
		if s.w != 0 {
			entries = append(entries, Entry{Key: s.key, Count: s.w})
		}
	}
	k = max(k, 1)
	var floor uint64
	if len(entries) > k {
		selectTopK(entries, k)
		for _, e := range entries[k:] {
			floor = max(floor, e.Count)
		}
		entries = entries[:k:k]
	}
	sortEntries(entries)
	return FromParts(k, t.total, floor, entries)
}

// TestTallyPartVsReference holds the one-pass top-k to the quickselect
// it replaced on random tallies — from empty to a few thousand keys,
// weights drawn from ranges narrow enough that most keys tie with
// others, so the canonical key order decides which of them survive the
// cut — at every capacity from below 1 to above the key count.
func TestTallyPartVsReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for it := 0; it < 3000; it++ {
		var tally Tally
		keys := r.Intn(2000)
		if it%3 == 0 {
			keys = r.Intn(40)
		}
		maxW := uint64(1 + r.Intn(8))
		if it%5 == 0 {
			maxW = 1 << 20
		}
		for i := 0; i < keys; i++ {
			tally.AddN(uint64(r.Intn(4*keys+1)), 1+r.Uint64()%maxW)
		}
		for _, k := range []int{0, 1, 2, 8, 32, 500} {
			got, want := tally.Part(k), partReference(&tally, k)
			if got.K() != want.K() || got.N() != want.N() || got.Floor() != want.Floor() || !slices.Equal(got.Top(), want.Top()) {
				t.Fatalf("iteration %d, %d keys, k=%d: part K=%d N=%d floor=%d top=%v, reference K=%d N=%d floor=%d top=%v",
					it, len(tally.occ), k, got.K(), got.N(), got.Floor(), got.Top(), want.K(), want.N(), want.Floor(), want.Top())
			}
		}
	}
}
