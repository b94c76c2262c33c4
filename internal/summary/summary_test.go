package summary

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mind/internal/schema"
)

// testSchema mirrors the store tests' shape: three indexed dims with
// bounds, one payload attribute.
func testSchema() *schema.Schema {
	return &schema.Schema{
		Tag: "t",
		Attrs: []schema.Attr{
			{Name: "a", Kind: schema.KindUint, Max: 9999},
			{Name: "b", Kind: schema.KindUint, Max: 9999},
			{Name: "c", Kind: schema.KindUint, Max: 9999},
			{Name: "p", Kind: schema.KindUint},
		},
		IndexDims: 3,
	}
}

// timeSchema is testSchema with its second indexed attribute a time, as
// in Index-2: the rollup then cuts on the store's time-first schedule.
func timeSchema() *schema.Schema {
	sch := testSchema()
	sch.Attrs[1].Kind = schema.KindTime
	return sch
}

// rollupSchemas are the two shapes of the cut schedule: round robin, and
// time on two cuts of every three.
func rollupSchemas() []*schema.Schema { return []*schema.Schema{testSchema(), timeSchema()} }

func randRec(r *rand.Rand) schema.Record {
	// Skewed first attribute so the sketch sees real heavy hitters.
	a := uint64(r.Intn(10000))
	if r.Intn(2) == 0 {
		a = uint64(r.Intn(8)) * 100
	}
	return schema.Record{a, uint64(r.Intn(10000)), uint64(r.Intn(10000)), uint64(r.Intn(1000))}
}

func randRect(r *rand.Rand) schema.Rect {
	rc := schema.Rect{Lo: make([]uint64, 3), Hi: make([]uint64, 3)}
	for d := 0; d < 3; d++ {
		if r.Intn(3) == 0 {
			rc.Lo[d], rc.Hi[d] = 0, 9999 // wildcard dim: whale shape
		} else {
			w := uint64(r.Intn(4000) + 1)
			lo := uint64(r.Intn(10000 - int(w)))
			rc.Lo[d], rc.Hi[d] = lo, lo+w
		}
	}
	return rc
}

// resolveExact finishes a Resolve the way the mind layer does: boundary
// cells are scanned exactly against the record set (here the flat
// slice standing in for the store ladder) and folded in via Add.
func resolveExact(s *Summary, sch *schema.Schema, rect schema.Rect, recs []schema.Record) Agg {
	agg := s.Resolve(rect)
	for _, b := range agg.Boundary {
		for _, rec := range recs {
			if b.ContainsRecord(sch, rec) {
				agg.Add(rec)
			}
		}
	}
	return agg
}

// flatAgg is the oracle: a recount straight off the record slice.
func flatAgg(sch *schema.Schema, rect schema.Rect, recs []schema.Record) (count uint64, sums []uint64, hist map[uint64]uint64) {
	sums = make([]uint64, sch.Arity())
	hist = make(map[uint64]uint64)
	for _, rec := range recs {
		if rect.ContainsRecord(sch, rec) {
			count++
			for i := range sums {
				sums[i] += rec[i]
			}
			hist[rec[0]]++
		}
	}
	return
}

func checkAgg(t *testing.T, tag string, agg Agg, count uint64, sums []uint64, hist map[uint64]uint64) {
	t.Helper()
	if agg.Count != count {
		t.Fatalf("%s: Count = %d, want %d", tag, agg.Count, count)
	}
	for i := range sums {
		if agg.Sums[i] != sums[i] {
			t.Fatalf("%s: Sums[%d] = %d, want %d", tag, i, agg.Sums[i], sums[i])
		}
	}
	// Sketch: bracketing and containment against the exact histogram.
	seen := make(map[uint64]bool)
	for _, e := range agg.Sketch.Top() {
		seen[e.Key] = true
		truth := hist[e.Key]
		if truth > e.Count || e.Count-e.Err > truth {
			t.Fatalf("%s: key %d true %d outside [%d, %d]", tag, e.Key, truth, e.Count-e.Err, e.Count)
		}
	}
	for k, truth := range hist {
		if !seen[k] && truth > agg.Sketch.Floor() {
			t.Fatalf("%s: heavy key %d (%d > floor %d) unmonitored", tag, k, truth, agg.Sketch.Floor())
		}
	}
	if agg.Sketch.Exact() {
		for _, e := range agg.Sketch.Top() {
			if e.Count != hist[e.Key] {
				t.Fatalf("%s: exact-flagged sketch wrong for key %d: %d vs %d", tag, e.Key, e.Count, hist[e.Key])
			}
		}
	}
}

// TestSummaryDifferentialFlatRecount mirrors the store's differential
// fuzz: a random insert stream checked against a flat recount at a
// cadence that crosses fold boundaries mid-stream, on both cut schedules.
func TestSummaryDifferentialFlatRecount(t *testing.T) {
	for _, sch := range rollupSchemas() {
		testDifferentialFlatRecount(t, sch)
	}
}

func testDifferentialFlatRecount(t *testing.T, sch *schema.Schema) {
	for _, depth := range []int{2, 5, 8} {
		r := rand.New(rand.NewSource(int64(depth) * 41))
		s := New(sch, Options{Depth: depth, K: 16, DeltaMax: 32})
		var recs []schema.Record
		for i := 0; i < 2500; i++ {
			rec := randRec(r)
			s.Insert(rec)
			recs = append(recs, rec)
			if i%37 == 0 {
				rect := randRect(r)
				agg := resolveExact(s, sch, rect, recs)
				count, sums, hist := flatAgg(sch, rect, recs)
				checkAgg(t, "mid-stream", agg, count, sums, hist)
			}
		}
		// Full-space rect resolves purely from the root rollup.
		full := sch.FullRect()
		agg := s.Resolve(full)
		if len(agg.Boundary) != 0 {
			t.Fatalf("full rect produced %d boundary cells", len(agg.Boundary))
		}
		count, sums, hist := flatAgg(sch, full, recs)
		checkAgg(t, "full", agg, count, sums, hist)
	}
}

// TestSummaryFoldBoundaries pins behavior right at the delta fold
// threshold: resolves must agree with the oracle one insert before the
// fold, at it, and after it, and the fold counter must advance.
func TestSummaryFoldBoundaries(t *testing.T) {
	sch := testSchema()
	const deltaMax = 8
	cases := []int{deltaMax - 1, deltaMax, deltaMax + 1, 3*deltaMax - 1, 3 * deltaMax}
	for _, n := range cases {
		r := rand.New(rand.NewSource(int64(n)))
		s := New(sch, Options{Depth: 6, K: 8, DeltaMax: deltaMax})
		var recs []schema.Record
		for i := 0; i < n; i++ {
			rec := randRec(r)
			s.Insert(rec)
			recs = append(recs, rec)
		}
		if s.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, s.Len())
		}
		wantFolds := uint64(n / deltaMax)
		if _, deltaN, folds := s.Stats(); folds != wantFolds || deltaN != n%deltaMax {
			t.Fatalf("n=%d: folds=%d deltaN=%d, want %d/%d", n, folds, deltaN, wantFolds, n%deltaMax)
		}
		for q := 0; q < 20; q++ {
			rect := randRect(r)
			agg := resolveExact(s, sch, rect, recs)
			count, sums, hist := flatAgg(sch, rect, recs)
			checkAgg(t, "boundary", agg, count, sums, hist)
		}
		// A forced fold (what a store ladder's carry ends with) must not change
		// answers.
		s.Fold()
		if _, deltaN, _ := s.Stats(); deltaN != 0 {
			t.Fatalf("n=%d: delta not empty after Fold", n)
		}
		for q := 0; q < 10; q++ {
			rect := randRect(r)
			agg := resolveExact(s, sch, rect, recs)
			count, sums, hist := flatAgg(sch, rect, recs)
			checkAgg(t, "post-fold", agg, count, sums, hist)
		}
	}
}

// TestSummaryCOWConsistency hammers concurrent inserts and resolves
// under -race: every read must see an internally consistent snapshot.
// The payload attribute is pinned to 1, so Sums[payload] == Count must
// hold in every observed aggregate regardless of timing.
func TestSummaryCOWConsistency(t *testing.T) {
	sch := testSchema()
	s := New(sch, Options{Depth: 6, K: 8, DeltaMax: 32})
	full := sch.FullRect()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				rect := full
				if r.Intn(2) == 0 {
					rect = randRect(r)
				}
				agg := s.Resolve(rect)
				for range agg.Boundary {
					// boundary cells resolve against the store in
					// production; here we only check rollup consistency
				}
				if len(agg.Boundary) == 0 && agg.Sums[3] != agg.Count {
					t.Errorf("inconsistent snapshot: count %d, payload sum %d", agg.Count, agg.Sums[3])
					return
				}
			}
		}(int64(100 + g))
	}
	r := rand.New(rand.NewSource(9))
	const n = 20000
	for i := 0; i < n; i++ {
		rec := randRec(r)
		rec[3] = 1
		s.Insert(rec)
	}
	close(stop)
	wg.Wait()
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	agg := s.Resolve(full)
	if agg.Count != n || agg.Sums[3] != n {
		t.Fatalf("final full resolve: count %d sum %d, want %d", agg.Count, agg.Sums[3], n)
	}
}

// FuzzSummaryRollup drives record streams from fuzz bytes through the
// cut-tree rollup and compares against a flat recount; the depth byte's
// low bit picks the cut schedule (round robin or time-first).
func FuzzSummaryRollup(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(4), uint8(8))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(15), uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, depthRaw, deltaRaw uint8) {
		sch := rollupSchemas()[depthRaw&1]
		s := New(sch, Options{Depth: int(depthRaw>>1%10) + 1, K: 8, DeltaMax: int(deltaRaw%16) + 1})
		var recs []schema.Record
		for i := 0; i+3 < len(data); i += 4 {
			rec := schema.Record{
				uint64(data[i]) * 39,
				uint64(data[i+1]) * 39,
				uint64(data[i+2]) * 39,
				uint64(data[i+3]),
			}
			s.Insert(rec)
			recs = append(recs, rec)
		}
		r := rand.New(rand.NewSource(int64(len(data))))
		for q := 0; q < 4; q++ {
			rect := randRect(r)
			agg := resolveExact(s, sch, rect, recs)
			count, sums, hist := flatAgg(sch, rect, recs)
			checkAgg(t, "fuzz", agg, count, sums, hist)
		}
	})
}

// TestFoldReuseIsExact pins what the aggregate path's fold pool relies
// on: a fold that held a larger, different stream and was Reset answers
// a new stream exactly as a fresh fold does — same count, sums and key
// part — and GetFold never hands out a fold of another arity. The
// fresh fold takes the stream as one batch whose selection skips a decoy
// row after every record, so it also pins that AddBatch folds exactly
// the selected rows.
func TestFoldReuseIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	used := NewFold(4)
	for i := 0; i < 5000; i++ { // ~5000 distinct keys: the table grows well past the second stream's
		used.AddBatch([]uint64{uint64(r.Intn(1 << 30)), 1, 2, 3}, []int32{0})
	}
	used.Reset()
	fresh := NewFold(4)
	var rows []uint64
	var sel []int32
	for i := 0; i < 700; i++ {
		rec := randRec(r)
		used.AddBatch(rec, []int32{0})
		sel = append(sel, int32(len(rows)))
		rows = append(rows, rec...)
		rows = append(rows, 1<<40, 7, 7, 7)
	}
	fresh.AddBatch(rows, sel)
	if used.Count != fresh.Count || !slices.Equal(used.Sums, fresh.Sums) {
		t.Fatalf("reused fold: count %d sums %v, fresh %d %v", used.Count, used.Sums, fresh.Count, fresh.Sums)
	}
	for _, k := range []int{1, 8, 1000} {
		a, b := used.Keys.Part(k), fresh.Keys.Part(k)
		if a.N() != b.N() || a.Floor() != b.Floor() || !slices.Equal(a.Top(), b.Top()) {
			t.Fatalf("k=%d: reused fold's key part differs from a fresh fold's", k)
		}
	}
	PutFold(used)
	for _, arity := range []int{3, 4, 4, 6} {
		f := GetFold(arity)
		if len(f.Sums) != arity || f.Count != 0 || f.Keys.used != 0 {
			t.Fatalf("GetFold(%d) = %d sums, count %d, %d keys", arity, len(f.Sums), f.Count, f.Keys.used)
		}
		PutFold(f)
	}
}

// TestRollupCutsOnStoreSchedule walks a folded rollup cell by cell with
// the cells schema.CutDim draws: every node must hold exactly the records
// inside its cell — which it cannot if the rollup split another
// dimension anywhere above it — and every published sketch must be
// without a lookup index, the memory a populated cell would otherwise
// carry for nothing.
func TestRollupCutsOnStoreSchedule(t *testing.T) {
	for _, sch := range rollupSchemas() {
		r := rand.New(rand.NewSource(5))
		s := New(sch, Options{Depth: 8, K: 8, DeltaMax: 64})
		var recs []schema.Record
		for i := 0; i < 3000; i++ {
			rec := randRec(r)
			s.Insert(rec)
			recs = append(recs, rec)
		}
		s.Fold()
		nodes := 0
		var walk func(n *node, depth int, cell schema.Rect)
		walk = func(n *node, depth int, cell schema.Rect) {
			var in uint64
			for _, rec := range recs {
				if cell.ContainsRecord(sch, rec) {
					in++
				}
			}
			if n == nil {
				if in != 0 {
					t.Fatalf("%s: empty cell %v at depth %d holds %d records", sch.Attrs[1].Kind, cell, depth, in)
				}
				return
			}
			nodes++
			if n.count != in || n.sk.N() != in {
				t.Fatalf("%s: cell %v at depth %d: count %d, sketch N %d, %d records inside", sch.Attrs[1].Kind, cell, depth, n.count, n.sk.N(), in)
			}
			if n.sk.idx != nil {
				t.Fatalf("%s: cell %v at depth %d publishes a sketch lookup index", sch.Attrs[1].Kind, cell, depth)
			}
			if depth == s.opts.Depth {
				return
			}
			d := schema.CutDim(depth, sch.Dims(), sch.TimeDim())
			cut := cell.Lo[d] + (cell.Hi[d]-cell.Lo[d])/2
			l, h := cell.Clone(), cell.Clone()
			l.Hi[d], h.Lo[d] = cut, cut+1
			walk(n.left, depth+1, l)
			if cut < cell.Hi[d] {
				walk(n.right, depth+1, h)
			}
		}
		walk(s.snap.Load().root, 0, sch.FullRect())
		if nodes < 1<<s.opts.Depth {
			t.Fatalf("%s: only %d populated nodes; the walk checked too little", sch.Attrs[1].Kind, nodes)
		}
	}
}
