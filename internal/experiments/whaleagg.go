package experiments

import (
	"fmt"

	"mind/internal/metrics"
	"mind/internal/schema"
	"mind/internal/store"
	"mind/internal/summary"
)

// WhaleAgg checks what the per-node summary rollup answers on the §5
// triage query: "how much traffic, and which destinations dominate it,
// inside this wide rectangle?" A million Index-2-shaped records with a
// handful of whale destinations hiding in uniform background land in
// one store ladder, which rolls up its own records; each wide rectangle
// is then answered two ways — exact (materialize every matching record
// and fold it, what a coordinator without summaries must do) and
// rollup (Resolve the cover, drill into only the boundary cells). The
// agg_ok value is the differential: rollup COUNT and SUMs must equal
// the exact fold bit-for-bit on every rectangle. whale_found says every
// whale surfaced in the sketch's top entries with its true count inside
// the [count-err, count] interval. The rollup's speed is measured by
// BenchmarkAggBoundaryFold and the benchmark module's scan_agg
// workload, not here.
func WhaleAgg(seed int64, scale float64) (*Report, error) {
	r := newReport("whale-agg", "Summary rollup vs exact fold on wide aggregate rectangles")

	n := int(1_000_000 * scale)
	if n < 50_000 {
		n = 50_000
	}
	horizon := uint64(7 * 86400)
	sch := schema.Index2(horizon)
	bounds := sch.Bounds()
	arity := sch.Arity()

	// Eight whale destinations carry 1/64 of the traffic each (an eighth
	// combined); the rest is uniform background. keyOf is the first
	// attribute, so the sketch tracks destinations.
	whales := make([]uint64, 8)
	rnd := xorshift(uint64(seed)*6364136223846793005 + 3)
	for i := range whales {
		whales[i] = rnd.next() % (bounds[0] + 1)
	}
	mkRec := func(i int) schema.Record {
		rec := make(schema.Record, len(sch.Attrs))
		for d := range rec {
			if d < len(bounds) {
				rec[d] = rnd.next() % (bounds[d] + 1)
			} else {
				rec[d] = rnd.next() % 65536 // bounded payload: sums stay comparable
			}
		}
		if i%8 == 0 {
			rec[0] = whales[(i/8)%len(whales)]
		}
		return rec
	}

	// The sketch K is raised above the production default because the
	// background keyspace here is 2^32-uniform: each truncating merge up
	// the cut tree raises the floor by the smallest discarded estimate,
	// and at K=32 the accumulated floor at the root rivals a 1/64-share
	// whale's count at the 50k CI scale. A leaf cell holds ~n/2^Depth
	// records (≈ 195 at 50k), nearly all distinct background keys, so
	// even the leaves truncate at K=128; the floor that accumulates to the
	// root is still under half a whale's count (364 against 782 over the
	// full space at 50k), so every whale clears it.
	const sketchK = 128
	eng := store.NewSharded(sch, store.Options{Rollup: &summary.Options{K: sketchK}})
	for i := 0; i < n; i++ {
		eng.Insert(mkRec(i))
	}
	eng.Compact()

	// Wide rectangles: the full space, then half/quarter/eighth windows of
	// the time dimension with everything else unconstrained — the "whole
	// backbone over the suspicious window" triage shape. The windows walk
	// the tree's own cut geometry (each is a genuine time-dim cell), the
	// shape operators ask for ("this half of the horizon", "that day") and
	// the shape the rollup answers from pure cover. One deliberately
	// unaligned window rides along: its two edges each cut a leaf time
	// cell (six of the rollup's eight cuts are time, schema.CutDim, so a
	// cell is 1/64 of the horizon), and the rollup folds those two cells
	// record by record.
	fullRect := func() schema.Rect {
		rc := schema.Rect{Lo: make([]uint64, len(bounds)), Hi: make([]uint64, len(bounds))}
		copy(rc.Hi, bounds)
		return rc
	}
	alignedWindow := func(halvings int) (uint64, uint64) {
		lo, hi := uint64(0), bounds[1]
		for i := 0; i < halvings; i++ {
			mid := lo + (hi-lo)/2
			if rnd.next()&1 == 0 {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo, hi
	}
	rects := []schema.Rect{fullRect()}
	labels := []string{"full-space"}
	for _, halvings := range []int{1, 2, 3} {
		rc := fullRect()
		rc.Lo[1], rc.Hi[1] = alignedWindow(halvings)
		rects = append(rects, rc)
		labels = append(labels, fmt.Sprintf("1/%d-time-window", 1<<halvings))
	}
	{
		rc := fullRect()
		w := bounds[1] / 8
		lo := rnd.next() % (bounds[1] - w + 1)
		rc.Lo[1], rc.Hi[1] = lo, lo+w
		rects = append(rects, rc)
		labels = append(labels, "1/8-unaligned")
	}

	// exactFold materializes every matching record and folds it — the
	// no-summary answer path.
	buf := make([]schema.Record, 0, n)
	exactFold := func(rect schema.Rect) (summary.Agg, []schema.Record) {
		out := summary.NewAgg(arity, sketchK)
		buf = eng.QueryAppend(rect, buf[:0])
		for _, rec := range buf {
			out.Add(rec)
		}
		return out, buf
	}
	// rollupFold is a node's shipped answer path (mind.resolveLocalAgg):
	// summary.ResolveShard resolves the cover and folds the boundary cells
	// in place through the store's batch visitor; MergeShards closes the
	// answer.
	rollupFold := func(rect schema.Rect) summary.Agg {
		out := summary.NewAgg(arity, sketchK)
		fold := summary.NewFold(arity)
		cover := summary.ResolveShard(eng.Rollup(), rect, eng.VisitBatches, fold)
		out.MergeShards([]*summary.Sketch{cover}, fold)
		return out
	}

	aggOK, whaleFound := 1.0, 1.0
	whalesSurfaced := 0
	t := metrics.NewTable("rect", "matched", "whales_in_top")
	for ri, rect := range rects {
		before := whalesSurfaced
		exact, matched := exactFold(rect)
		got := rollupFold(rect)
		if got.Count != exact.Count {
			aggOK = 0
			r.notef("DIFFERENTIAL FAILURE: rect %d rollup count %d != exact %d", ri, got.Count, exact.Count)
		}
		for d := range exact.Sums {
			if got.Sums[d] != exact.Sums[d] {
				aggOK = 0
				r.notef("DIFFERENTIAL FAILURE: rect %d rollup sum[%d] %d != exact %d",
					ri, d, got.Sums[d], exact.Sums[d])
			}
		}
		truth := make(map[uint64]uint64)
		for _, rec := range matched {
			truth[rec[0]]++
		}
		top := got.Sketch.Top()
		inTop := make(map[uint64]summary.Entry, len(top))
		for _, e := range top {
			inTop[e.Key] = e
		}
		for _, w := range whales {
			e, ok := inTop[w]
			if !ok {
				// The sketch's own contract: an unmonitored key's true weight
				// is bounded by the floor. On a narrow window a whale's
				// in-window mass can legitimately sink below the merge floor
				// accumulated over the cover — but the full space must always
				// surface every whale, and no rect may hide one whose count
				// exceeds the floor.
				if truth[w] > got.Sketch.Floor() {
					whaleFound = 0
					r.notef("whale %d (count %d > floor %d) missing from rect %d top-%d",
						w, truth[w], got.Sketch.Floor(), ri, len(top))
				} else if ri == 0 {
					whaleFound = 0
					r.notef("whale %d missing from full-space top-%d", w, len(top))
				}
				continue
			}
			whalesSurfaced++
			if truth[w] > e.Count || truth[w] < e.Count-e.Err {
				whaleFound = 0
				r.notef("whale %d true count %d outside [%d,%d] on rect %d",
					w, truth[w], e.Count-e.Err, e.Count, ri)
			}
		}
		t.Row(labels[ri], len(matched), whalesSurfaced-before)
	}
	r.table(t)

	_, _, folds := eng.Rollup().Stats()
	r.Values["agg_ok"] = aggOK
	r.Values["whale_found"] = whaleFound
	r.Values["summary_records"] = float64(eng.Rollup().Len())
	r.Values["summary_folds"] = float64(folds)
	r.Values["whales_surfaced"] = float64(whalesSurfaced)
	r.notef("n=%d records; rollup count and sums equal the exact fold on every rect: %v", n, aggOK == 1)
	return r, nil
}
