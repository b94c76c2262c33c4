//go:build !race

package store

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"mind/internal/schema"
	"mind/internal/summary"
)

// TestAllocBudgetShardedInsert is the CI alloc gate on the store write
// path, carries INCLUDED: an insert between carries allocates nothing
// (row copy + atomic length store), and a carry allocates eleven times
// whatever its size — the unpacked arena the absorbed levels are decoded
// and the level partitioned in (dropped once packed), its cuts, the four
// slices of its packed leaves (boxes, shapes, offsets, words), the
// Static, the snapshot, the level slice and the next tail (arena and
// header). 16 carries of every size from 256 to 4096 rows stay within 12
// allocations each, the engine's own included, and so under 0.05
// allocations per record.
func TestAllocBudgetShardedInsert(t *testing.T) {
	const inserts = 4096
	const carries = inserts / tailRows
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
		if s := e.Shape(); s.Carries != carries {
			t.Fatalf("%d carries over %d inserts, want %d", s.Carries, inserts, carries)
		}
	})
	t.Logf("%.0f allocations over %d inserts and %d carries", allocs, inserts, carries)
	if per := allocs / carries; per > 12 || allocs/inserts > 0.05 {
		t.Fatalf("insert path allocates %.1f per carry, %.4f per record (%.0f over %d inserts incl. carries); budget is 12 per carry and 0.05 per record", per, allocs/inserts, allocs, inserts)
	}
}

// TestAllocBudgetCount: a count allocates nothing on a merging ladder
// (levels and a tail), an appending one (blocks and a tail) or a
// compacted one (one level, no tail). It is a counting visit on pooled
// scratch: the window is a local buffer, and the tail's counting
// callback stays on the stack.
func TestAllocBudgetCount(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	recs := make([]schema.Record, 3000)
	for i := range recs {
		recs[i] = randRec(r)
	}
	merged, appended := NewSharded(sch3(), Options{}), NewSharded(sch3(), Options{Append: true})
	for _, rec := range recs {
		merged.Insert(rec)
		appended.Insert(rec)
	}
	compacted := oneLevel(sch3(), recs)
	rects := make([]schema.Rect, 64)
	for i := range rects {
		rects[i] = randRect(r)
	}
	for _, eng := range []struct {
		name string
		e    interface{ Count(schema.Rect) int }
	}{{"merged", merged}, {"append", appended}, {"compacted", compacted}} {
		q := 0
		if allocs := testing.AllocsPerRun(len(rects), func() { eng.e.Count(rects[q%len(rects)]); q++ }); allocs != 0 {
			t.Errorf("%s: Count allocates %.1f per call, want 0", eng.name, allocs)
		}
	}
}

// TestAllocBudgetAppendInsert is the alloc gate on an appending
// ladder's write path (Options.Append): an insert between seals
// allocates nothing, and a seal allocates four times whatever the
// records' width — the fresh tail (its arena and its header), the
// block's one slice of words the full tail is packed into, and the
// snapshot publishing both; the block list, which holds blocks by
// value, grows in place. No seal indexes or reorders a row: every sealed
// level is a block holding its tail in insertion order. Each block is at
// most half a tail arena — no larger than the 32-bit copy of the tail a
// narrow seal once made — and over 16 seals the bytes allocated stay
// within a quarter above the 17 tail arenas and 16 such halves; a seal
// that copied its tail at full width, or twice, would blow that.
func TestAllocBudgetAppendInsert(t *testing.T) {
	for _, width := range []string{"narrow", "wide"} {
		t.Run(width, func(t *testing.T) {
			r := rand.New(rand.NewSource(48))
			recs := make([]schema.Record, 16*tailRows)
			for i := range recs {
				recs[i] = randRec(r)
				if width == "narrow" {
					recs[i][3] >>= 32
				}
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
			s := e.Shape()
			if len(s.Levels) != 16 || s.Carries != 0 || (s.WideLevels == 16) != (width == "wide") || (s.WideLevels == 0) != (width == "narrow") {
				t.Fatalf("fixture: %+v, want 16 sealed %s levels", s, width)
			}
			const budget = 4
			if perSeal > budget+1 {
				t.Fatalf("a seal allocates %.1f times; budget is %d and the block list's amortised growth", perSeal, budget)
			}
			tailBytes := tailRows * sch3().Arity() * 8
			snap := e.snap.Load()
			if len(snap.levels) != 0 {
				t.Fatalf("%d indexed levels beside the blocks", len(snap.levels))
			}
			blockBytes := 0
			for j := range snap.blocks {
				b, i := &snap.blocks[j], j*tailRows
				if !b.each(func(rec schema.Record) bool { i++; return slices.Equal(rec, recs[i-1]) }) {
					t.Fatalf("block %d is not its tail in insertion order", j)
				}
				if b.bytes() > tailBytes/2 {
					t.Fatalf("block %d takes %d bytes, more than the %d of a 32-bit copy of its tail", j, b.bytes(), tailBytes/2)
				}
				blockBytes += b.bytes()
			}

			var before, after runtime.MemStats
			e = NewSharded(sch3(), Options{Append: true})
			runtime.ReadMemStats(&before)
			for _, rec := range recs {
				e.Insert(rec)
			}
			runtime.ReadMemStats(&after)
			want := uint64(17*tailBytes + 16*tailBytes/2)
			bytes := after.TotalAlloc - before.TotalAlloc
			t.Logf("16 seals: %.1f allocations each, %d bytes in all (tail arena %d bytes, blocks %d bytes each)", perSeal, bytes, tailBytes, blockBytes/16)
			if bytes > want*5/4 {
				t.Fatalf("16 seals allocated %d bytes; their tail arenas and half-tail blocks are %d: a seal copies rows at full width", bytes, want)
			}
		})
	}
}

// TestAllocBudgetRollupInsert: an engine that carries a rollup hands it
// the tail row it just published, and the rollup publishes its delta as
// the ladder publishes its tail — a row view written into a fixed array
// and a new length stored, under no lock a reader takes — so a primary
// insert between carries allocates nothing. What the run allocates is a
// constant handful: the engine and its rollup (8), the first insert's
// tail and the snapshot publishing it (3) and the rollup's delta array,
// which every fold empties and reuses (1). One allocation per record —
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
// record, nor per leaf a read decodes — a visit decodes every packed
// leaf into its one pooled scratch. The same unaligned rectangle is
// resolved over the same cut geometry and key universe at n and 8n
// records (205 allocations at both sizes, the fresh fold's copies of the
// covered cells' sketches among them: one grow per cover walk whatever
// the sketches hold); the materializing path this replaced allocated (and
// regrew) one result slice per boundary cell, so its count climbed
// with n, and a fresh decode per leaf would climb with it too.
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

// TestLadderFootprint is the gate on the store's bytes per record: 64 k
// records in Index-2's ranges, spread over a day (every value fits 32
// bits, as NetFlow's fields do), retain at most 14 B of heap each in a
// merging ladder with its rollup (a primary store, as a node builds it),
// whose leaves pack each column at the bits its range within the leaf
// needs — ≈ 21 + 9 + 20 + 32 + 6 = 88 bits, 11 B a row, plus each
// 32-row leaf's 46 B header, the cuts and the tail: 13.0 B measured,
// where unpacked narrow rows were 20 B and 64-bit rows 40 B — and at
// most 14 B in an appending one (a replica store), whose 256-row blocks
// pack each column at the bits its range across the block needs:
// 24 + 9 + 21 + 32 + 6 = 92 bits, 11.5 B a row, plus each block's header
// and the tail. The
// rollup's own heap is a fixed ≈ 480 KB whatever the ladder's width (a
// sketch per cell), 7 B per record at this size, so it is measured on
// its own, fed the same records, and not charged to the ladder. One
// record holding a value ≥ 2³² then widens only the level that holds it:
// the 64 k narrow records stay narrow beside it, and Shape reports the
// one wide level and the bytes it adds.
func TestLadderFootprint(t *testing.T) {
	const n = 1 << 16
	sch := schema.Index2(86400)
	r := rand.New(rand.NewSource(49))
	recs := make([]schema.Record, n+2*tailRows)
	for i := range recs {
		recs[i] = schema.Record{uint64(r.Intn(4096)) * 0x9E3779B1 & 0xffffff00, uint64(i) * 86400 / n % 86400,
			uint64(r.Intn(1 << 21)), r.Uint64() >> 32, uint64(r.Intn(64))}
	}
	recs[n][3] = 1 << 40 // the first record after the 64 k: a value past 32 bits
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	roll := summary.New(sch, summary.Options{})
	for _, rec := range recs[:n] {
		roll.Insert(rec)
	}
	rollup := float64(int64(heap())-int64(before)) / n
	runtime.KeepAlive(roll)
	for _, tc := range []struct {
		name    string
		opts    Options
		rollups float64 // the rollup's own heap per record, not the ladder's
		budget  float64 // heap per record
		bytes   [2]int  // the bounds on Shape.Bytes per record
	}{
		{"merging+rollup", Options{Rollup: &summary.Options{}}, rollup, 14, [2]int{12, 14}},
		{"appending", Options{Append: true}, 0, 14, [2]int{11, 13}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := heap()
			e := NewSharded(sch, tc.opts)
			for _, rec := range recs[:n] {
				e.Insert(rec)
			}
			per := float64(int64(heap())-int64(before))/n - tc.rollups
			s := e.Shape()
			t.Logf("%d records: %.1f B of heap each beside %.1f B of rollup, Shape.Bytes %.1f each, %d levels, %d wide",
				n, per, tc.rollups, float64(s.Bytes)/n, len(s.Levels), s.WideLevels)
			if per > tc.budget {
				t.Fatalf("%d records retain %.1f B of heap each, budget %.0f", n, per, tc.budget)
			}
			if s.WideLevels != 0 || s.Bytes > n*tc.bytes[1] || s.Bytes < n*tc.bytes[0] {
				t.Fatalf("%d narrow records: %d wide levels, %d bytes of levels and tail, want %d–%d B each", n, s.WideLevels, s.Bytes, tc.bytes[0], tc.bytes[1])
			}
			for _, rec := range recs[n:] { // the wide record's tail, then one more
				e.Insert(rec)
			}
			w := e.Shape()
			var wide []int // the lengths of the wide levels and blocks
			holds := func(rows []uint64) bool { return slices.Contains(rows, 1<<40) }
			snap := e.snap.Load()
			for k, l := range snap.levels {
				if l.isWide() {
					wide = append(wide, l.Len())
					if !holds(wideRows(l)) {
						t.Fatalf("level %d of %d rows is wide without holding the wide record", k, l.Len())
					}
				}
			}
			for k := range snap.blocks {
				if b := &snap.blocks[k]; b.isWide() {
					wide = append(wide, b.n)
					if !holds(appendBlock[uint64](nil, b)) {
						t.Fatalf("block %d is wide without holding the wide record", k)
					}
				}
			}
			if len(wide) != 1 || w.WideLevels != 1 || wide[0] > 2*tailRows {
				t.Fatalf("one value ≥ 2³² widened levels of lengths %v among %v (Shape says %d)", wide, w.Levels, w.WideLevels)
			}
			if grown := w.Bytes - s.Bytes; grown > 2*tailRows*8*sch.Arity()+8*tailRows {
				t.Fatalf("%d more records, one of them wide, added %d bytes", 2*tailRows, grown)
			}
			runtime.KeepAlive(recs)
		})
	}
}
