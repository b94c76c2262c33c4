package store

import (
	"math/rand"
	"testing"

	"mind/internal/schema"
	"mind/internal/summary"
)

// skewRec draws a record whose first attribute — the sketch key — is
// skewed, so the rollup's sketches see real heavy hitters.
func skewRec(r *rand.Rand) schema.Record {
	rec := randRec(r)
	if r.Intn(2) == 0 {
		rec[0] = uint64(r.Intn(8)) * 100
	}
	rec[3] %= 1000
	return rec
}

// resolveRollup answers rect the way mind.resolveLocalAgg does: per
// shard, the shard's own rollup resolves the cover and its boundary
// cells fold through VisitShardBatches; MergeShards closes the answer.
func resolveRollup(e *Sharded, rect schema.Rect, k int) summary.Agg {
	agg := summary.NewAgg(e.arity, k)
	fold := summary.NewFold(e.arity)
	var covers []*summary.Sketch
	for sh := 0; sh < e.NumShards(); sh++ {
		covers = append(covers, summary.ResolveShard(e.Rollup(sh), rect, func(cell schema.Rect, fn func([]uint64, []int32)) {
			e.VisitShardBatches(sh, cell, fn)
		}, fold))
	}
	agg.MergeShards(covers, fold)
	return agg
}

// checkRollupAgg holds agg to a flat recount of recs inside rect: count
// and sums exact, every sketch entry bracketing its key's true count,
// every unmonitored key at or below the floor.
func checkRollupAgg(t *testing.T, tag string, agg summary.Agg, rect schema.Rect, recs []schema.Record) {
	t.Helper()
	sch := sch3()
	var count uint64
	sums := make([]uint64, sch.Arity())
	hist := make(map[uint64]uint64)
	for _, rec := range recs {
		if rect.ContainsRecord(sch, rec) {
			count++
			for i := range sums {
				sums[i] += rec[i]
			}
			hist[rec[0]]++
		}
	}
	if agg.Count != count {
		t.Fatalf("%s: Count = %d, want %d", tag, agg.Count, count)
	}
	for i := range sums {
		if agg.Sums[i] != sums[i] {
			t.Fatalf("%s: Sums[%d] = %d, want %d", tag, i, agg.Sums[i], sums[i])
		}
	}
	seen := make(map[uint64]bool)
	for _, e := range agg.Sketch.Top() {
		seen[e.Key] = true
		if truth := hist[e.Key]; truth > e.Count || e.Count-e.Err > truth {
			t.Fatalf("%s: key %d true %d outside [%d, %d]", tag, e.Key, truth, e.Count-e.Err, e.Count)
		}
	}
	for k, truth := range hist {
		if !seen[k] && truth > agg.Sketch.Floor() {
			t.Fatalf("%s: heavy key %d (%d > floor %d) unmonitored", tag, k, truth, agg.Sketch.Floor())
		}
	}
}

// rollupLen sums the shards' rollups and their lifetime folds.
func rollupLen(e *Sharded) (n int, folds uint64) {
	for sh := 0; sh < e.NumShards(); sh++ {
		_, _, f := e.Rollup(sh).Stats()
		n += e.Rollup(sh).Len()
		folds += f
	}
	return n, folds
}

// TestSummaryStoreMergeBoundary is the tail→ladder carry interaction
// table test for the ownership Options.Rollup sets up: records stream
// into an engine whose shards feed and fold their own rollups. At the
// insert that fires each carry and the one after it, and after Compact,
// the rollups hold exactly the engine's records (Σ Rollup(i).Len() ==
// Len()), a carry leaves its shard's delta empty, and the aggregate read
// path agrees with Count and a flat oracle.
func TestSummaryStoreMergeBoundary(t *testing.T) {
	e := NewSharded(sch3(), Options{Shards: 4, Rollup: &summary.Options{Depth: 6, K: 16, DeltaMax: 64}})
	r := rand.New(rand.NewSource(7))
	sc := NewScan(sch3())
	check := func(tag string) {
		t.Helper()
		if n, _ := rollupLen(e); n != e.Len() || n != sc.Len() {
			t.Fatalf("%s: rollups hold %d records, engine %d, inserted %d", tag, n, e.Len(), sc.Len())
		}
		for q := 0; q < 8; q++ {
			rect := randRect(r)
			if e.Count(rect) != sc.Count(rect) {
				t.Fatalf("%s: store count diverged from oracle", tag)
			}
			checkRollupAgg(t, tag, resolveRollup(e, rect, 16), rect, sc.recs)
		}
	}
	carries := func() (n uint64) {
		for _, s := range e.Shape() {
			n += s.Carries
		}
		return n
	}
	afterCarry := false
	for i := 0; i < 6000; i++ { // ~1500 per shard: five carries each, three ladder shapes
		before := carries()
		rec := skewRec(r)
		sh := e.shardOf(rec)
		e.Insert(rec)
		sc.Insert(rec)
		switch {
		case carries() != before:
			if _, deltaN, _ := e.Rollup(sh).Stats(); deltaN != 0 {
				t.Fatalf("i=%d: shard %d carried and left %d records in its rollup's delta", i, sh, deltaN)
			}
			check("carry")
			afterCarry = true
		case afterCarry:
			check("after-carry")
			afterCarry = false
		}
	}
	if n := carries(); n < 4*uint64(e.NumShards()) {
		t.Fatalf("%d store carries fired; the stream is too short to cross the ladder's shapes", n)
	}
	check("final")
	_, before := rollupLen(e)
	e.Compact()
	if _, after := rollupLen(e); after == before {
		t.Fatal("Compact carried the tails without folding the rollups")
	}
	check("post-compact")
}
