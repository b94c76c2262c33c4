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

// resolveRollup answers rect the way mind.resolveLocalAgg does: the
// engine's rollup resolves the cover and its boundary cells fold through
// VisitBatches; MergeShards merges the cover's sketches and closes the
// answer.
func resolveRollup(e *Sharded, rect schema.Rect, k int) summary.Agg {
	agg := summary.NewAgg(e.arity, k)
	fold := summary.NewFold(e.arity)
	agg.MergeShards(summary.ResolveShard(e.Rollup(), rect, e.VisitBatches, fold, nil), fold)
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

// TestSummaryStoreMergeBoundary is the tail→ladder carry interaction
// table test for the ownership Options.Rollup sets up: records stream
// into an engine that feeds and folds its own rollup. At the insert that
// fires each carry and the one after it, and after Compact, the rollup
// holds exactly the engine's records (Rollup().Len() == Len()), a carry
// leaves its delta empty, and the aggregate read path agrees with Count
// and a flat oracle.
func TestSummaryStoreMergeBoundary(t *testing.T) {
	e := NewSharded(sch3(), Options{Rollup: &summary.Options{Depth: 6, K: 16, DeltaMax: 64}})
	r := rand.New(rand.NewSource(7))
	sc := NewScan(sch3())
	check := func(tag string) {
		t.Helper()
		if n := e.Rollup().Len(); n != e.Len() || n != sc.Len() {
			t.Fatalf("%s: rollup holds %d records, engine %d, inserted %d", tag, n, e.Len(), sc.Len())
		}
		for q := 0; q < 8; q++ {
			rect := randRect(r)
			if e.Count(rect) != sc.Count(rect) {
				t.Fatalf("%s: store count diverged from oracle", tag)
			}
			checkRollupAgg(t, tag, resolveRollup(e, rect, 16), rect, sc.recs)
		}
	}
	carries := func() uint64 { return e.Shape().Carries }
	afterCarry := false
	for i := 0; i < 6000; i++ { // 23 carries: ladders of one to four levels
		before := carries()
		rec := skewRec(r)
		e.Insert(rec)
		sc.Insert(rec)
		switch {
		case carries() != before:
			if _, deltaN, _ := e.Rollup().Stats(); deltaN != 0 {
				t.Fatalf("i=%d: carried and left %d records in the rollup's delta", i, deltaN)
			}
			check("carry")
			afterCarry = true
		case afterCarry:
			check("after-carry")
			afterCarry = false
		}
	}
	if n := carries(); n < 16 {
		t.Fatalf("%d store carries fired; the stream is too short to cross the ladder's shapes", n)
	}
	check("final")
	_, _, before := e.Rollup().Stats()
	e.Compact()
	if _, _, after := e.Rollup().Stats(); after == before {
		t.Fatal("Compact carried the tail without folding the rollup")
	}
	check("post-compact")
}
