package summary

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
// under -race: every read must see an internally consistent rollup. The
// payload attribute is pinned to 1, so Sums[payload] == Count must hold
// in every observed aggregate regardless of timing. Every other read is
// ResolveShard's, whose parts are copies a fold cannot reach: the reader
// keeps them while the writer folds twice more into the cells they came
// from, then checks each still holds what it held when handed over. A
// part that aliased a cell's slot in the arena would change under the
// fold, and the race detector reports the fold's write against the
// re-read.
func TestSummaryCOWConsistency(t *testing.T) {
	sch := testSchema()
	s := New(sch, Options{Depth: 6, K: 8, DeltaMax: 32})
	full := sch.FullRect()
	noStore := func(schema.Rect, func(*schema.Batch)) {}
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	var kept atomic.Int64 // parts re-checked after two folds
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; !stopped(); i++ {
				rect := full
				if r.Intn(2) == 0 {
					rect = randRect(r)
				}
				if i%2 == 0 {
					agg := s.Resolve(rect)
					if len(agg.Boundary) == 0 && agg.Sums[3] != agg.Count {
						t.Errorf("inconsistent rollup: count %d, payload sum %d", agg.Count, agg.Sums[3])
						return
					}
					continue
				}
				f := GetFold(sch.Arity())
				parts := ResolveShard(s, rect, noStore, f, nil)
				var covered uint64
				held := make([]*Sketch, len(parts))
				for j, p := range parts {
					covered += p.N()
					held[j] = p.Clone()
				}
				if f.Sums[3] != f.Count || covered > f.Count {
					t.Errorf("inconsistent rollup: count %d, payload sum %d, covered cells' sketches %d", f.Count, f.Sums[3], covered)
					return
				}
				_, _, folds := s.Stats()
				for _, _, now := s.Stats(); now < folds+2; _, _, now = s.Stats() {
					if stopped() {
						return
					}
					runtime.Gosched()
				}
				kept.Add(int64(len(parts)))
				for j, p := range parts {
					if !sameSketch(p, held[j]) {
						t.Errorf("part %d of %d changed after later folds: N %d → %d, floor %d → %d", j, len(parts), held[j].N(), p.N(), held[j].Floor(), p.Floor())
						return
					}
				}
				PutFold(f)
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
	if kept.Load() == 0 {
		t.Fatal("no part was held across two folds: the aliasing check checked nothing")
	}
	agg := s.Resolve(full)
	if agg.Count != n || agg.Sums[3] != n {
		t.Fatalf("final full resolve: count %d sum %d, want %d", agg.Count, agg.Sums[3], n)
	}
}

// FuzzSummaryRollup drives record streams from fuzz bytes through the
// cut-tree rollup and compares against a flat recount; the depth byte's
// low bit picks the cut schedule (round robin or time-first).
//
// The stream seeds are 256 skewed records in time order and the same
// records shuffled, on the time schema at depth 8 with 16-record folds:
// a time-ordered fold hands a few cells its whole batch, a shuffled one
// hands most cells fewer records than K, so both sides of the rollup's
// merge-or-offer rule are seeded.
func FuzzSummaryRollup(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(4), uint8(8))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(15), uint8(8))
	ordered, shuffled := streamSeeds(256)
	f.Add(ordered, uint8(15), uint8(15))
	f.Add(shuffled, uint8(15), uint8(15))
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
// batchOf is a store batch of plain rows of arity 4 and a selection.
func batchOf(rows []uint64, sel []int32) *schema.Batch {
	var b schema.Batch
	b.SetRows(rows, sel, 4)
	return &b
}

func TestFoldReuseIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	used := NewFold(4)
	for i := 0; i < 5000; i++ { // ~5000 distinct keys: the table grows well past the second stream's
		used.AddBatch(batchOf([]uint64{uint64(r.Intn(1 << 30)), 1, 2, 3}, []int32{0}))
	}
	used.Reset()
	fresh := NewFold(4)
	var rows []uint64
	var sel []int32
	for i := 0; i < 700; i++ {
		rec := randRec(r)
		used.AddBatch(batchOf(rec, []int32{0}))
		sel = append(sel, int32(len(rows)))
		rows = append(rows, rec...)
		rows = append(rows, 1<<40, 7, 7, 7)
	}
	fresh.AddBatch(batchOf(rows, sel))
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
		if len(f.Sums) != arity || f.Count != 0 || len(f.Keys.occ) != 0 {
			t.Fatalf("GetFold(%d) = %d sums, count %d, %d keys", arity, len(f.Sums), f.Count, len(f.Keys.occ))
		}
		PutFold(f)
	}
}

// TestRollupCutsOnStoreSchedule walks a folded rollup cell by cell with
// the cells schema.CutDim draws: every node must hold exactly the records
// inside its cell — which it cannot if the rollup split another
// dimension anywhere above it — and every published sketch must hold
// no more than K entries' memory, whether it was offered to or merged.
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
		var walk func(i int32, depth int, cell schema.Rect)
		walk = func(i int32, depth int, cell schema.Rect) {
			var in uint64
			for _, rec := range recs {
				if cell.ContainsRecord(sch, rec) {
					in++
				}
			}
			if i == empty {
				if in != 0 {
					t.Fatalf("%s: empty cell %v at depth %d holds %d records", sch.Attrs[1].Kind, cell, depth, in)
				}
				return
			}
			nodes++
			n, sk := s.cells[i], s.sketch(i)
			if n.count != in || sk.N() != in {
				t.Fatalf("%s: cell %v at depth %d: count %d, sketch N %d, %d records inside", sch.Attrs[1].Kind, cell, depth, n.count, sk.N(), in)
			}
			if sk.Len() > s.opts.K || cap(sk.entries) != s.opts.K {
				t.Fatalf("%s: cell %v at depth %d holds %d entries in a sketch slot of %d, K is %d", sch.Attrs[1].Kind, cell, depth, sk.Len(), cap(sk.entries), s.opts.K)
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
		walk(s.root(), 0, sch.FullRect())
		if nodes < 1<<s.opts.Depth {
			t.Fatalf("%s: only %d populated nodes; the walk checked too little", sch.Attrs[1].Kind, nodes)
		}
	}
}

// streamSeeds encodes n skewed records in FuzzSummaryRollup's 4-byte
// form, timestamps (the second byte) rising with the stream, and the
// same records shuffled.
func streamSeeds(n int) (ordered, shuffled []byte) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < n; i++ {
		key := byte(r.Intn(256))
		if r.Intn(2) == 0 {
			key = byte(r.Intn(6)) * 40
		}
		ordered = append(ordered, key, byte(i*256/n), byte(r.Intn(256)), byte(r.Intn(256)))
	}
	shuffled = slices.Clone(ordered)
	r.Shuffle(n, func(i, j int) {
		for b := 0; b < 4; b++ {
			shuffled[4*i+b], shuffled[4*j+b] = shuffled[4*j+b], shuffled[4*i+b]
		}
	})
	return ordered, shuffled
}

// TestRollupCellBrackets holds every cell's published sketch to an exact
// tally of the records inside the cell: every kept key's true count lies
// in [Count-Err, Count], every absent key's is at most Floor, N is the
// cell's record count, and an Exact sketch counts exactly. The streams
// are time ordered and shuffled, folded at two delta sizes, so cells are
// handed batches on both sides of K: offered to (leaves, and inner cells
// given fewer than K records) and merged from their children (inner
// cells given K or more) — and offered to again after a merge, and
// merged again after offers, as later folds reach them.
func TestRollupCellBrackets(t *testing.T) {
	sch := timeSchema()
	const n, k = 6000, 8
	r := rand.New(rand.NewSource(31))
	ordered := make([]schema.Record, n)
	for i := range ordered {
		ordered[i] = randRec(r)
		ordered[i][1] = uint64(i * 10000 / n)
	}
	shuffled := slices.Clone(ordered)
	r.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, order := range []struct {
		name string
		recs []schema.Record
	}{{"time_ordered", ordered}, {"shuffled", shuffled}} {
		for _, deltaMax := range []int{4 * k, 64 * k} {
			s := New(sch, Options{Depth: 8, K: k, DeltaMax: deltaMax})
			for _, rec := range order.recs {
				s.Insert(rec)
			}
			s.Fold()
			cells := 0
			var walk func(i int32, depth int, cell schema.Rect)
			walk = func(i int32, depth int, cell schema.Rect) {
				if i == empty {
					return
				}
				nd := s.cells[i]
				cells++
				truth := make(map[uint64]uint64)
				var count uint64
				for _, rec := range order.recs {
					if cell.ContainsRecord(sch, rec) {
						truth[keyOf(rec)]++
						count++
					}
				}
				sk := s.sketch(i)
				tag := fmt.Sprintf("%s/delta=%d: cell %v at depth %d", order.name, deltaMax, cell, depth)
				if sk.N() != count || nd.count != count {
					t.Fatalf("%s: sketch N %d, count %d, %d records inside", tag, sk.N(), nd.count, count)
				}
				kept := make(map[uint64]bool)
				for _, e := range sk.Top() {
					kept[e.Key] = true
					if w := truth[e.Key]; e.Count-e.Err > w || w > e.Count {
						t.Fatalf("%s: key %d true %d outside [%d, %d]", tag, e.Key, w, e.Count-e.Err, e.Count)
					}
					if sk.Exact() && e.Count != truth[e.Key] {
						t.Fatalf("%s: exact sketch counts key %d as %d, true %d", tag, e.Key, e.Count, truth[e.Key])
					}
				}
				for key, w := range truth {
					if !kept[key] && w > sk.Floor() {
						t.Fatalf("%s: absent key %d weighs %d > floor %d", tag, key, w, sk.Floor())
					}
				}
				if depth == s.opts.Depth {
					return
				}
				d := schema.CutDim(depth, sch.Dims(), sch.TimeDim())
				cut := cell.Lo[d] + (cell.Hi[d]-cell.Lo[d])/2
				l, h := cell.Clone(), cell.Clone()
				l.Hi[d], h.Lo[d] = cut, cut+1
				walk(nd.left, depth+1, l)
				if cut < cell.Hi[d] {
					walk(nd.right, depth+1, h)
				}
			}
			walk(s.root(), 0, sch.FullRect())
			if cells < 1<<s.opts.Depth {
				t.Fatalf("%s/delta=%d: only %d populated cells; the walk checked too little", order.name, deltaMax, cells)
			}
		}
	}
}
