package store

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mind/internal/schema"
)

// fuzzVal maps two fuzz bytes to an attribute value or rectangle edge
// that stresses the unclamp identity (sch3's bound is 9999): spread over
// and past the bound, hugging it from both sides, near MaxUint64, and
// tiny (duplicate-heavy).
func fuzzVal(mode, b byte) uint64 {
	switch mode % 4 {
	case 0:
		return uint64(b) * 41 // 0 … 10455: crosses the bound
	case 1:
		return 9999 - 128 + uint64(b) // bound-128 … bound+127
	case 2:
		return math.MaxUint64 - uint64(b)
	default:
		return uint64(b % 8)
	}
}

// FuzzStoreOracle is the differential contract of the indexed engines:
// whatever the stream — attribute values above the schema bound,
// rectangle edges at, just below and above it, Lo above the bound (must
// be empty), inverted rectangles, records straddling tail → ladder
// carries or seals — Static, Sharded and an appending Sharded
// (Options.Append, sealing a tail every few records and compacted at the
// end) must answer VisitBatches, Visit, Query and Count exactly as the
// Scan oracle, which clamps every record the slow way (a batch must also
// hold whole rows, at most a leaf of them, and select ascending row
// starts inside the rectangle), and both ladders' Len and All must track
// it after every op — the appending one's All in insertion order. The engines
// test RAW values against an unclamped rectangle; this is the test that
// breaks if that identity does. The schema is sch3 (round robin cuts) or
// sch3 with a time attribute at position 0, 1 or 2, so every phase of
// the time-first cut schedule (schema.CutDim) is pruned on against the
// oracle.
func FuzzStoreOracle(f *testing.F) {
	// Insert = op, then (mode, byte) per coordinate; query = op 3, then
	// (mode, byte) for Lo and Hi per dim. One in-range record and the full
	// space:
	f.Add([]byte{0, 0, 10, 0, 20, 0, 30, 3, 0, 0, 0, 255, 0, 0, 0, 255, 0, 0, 0, 255}, uint8(0), uint8(0))
	// A record far above the bound on every dim, then [b, b]³, [b-1, b-1]³,
	// [b+1, b+1]³ (Lo above the bound) and a rectangle up at MaxUint64.
	f.Add([]byte{0, 2, 9, 2, 0, 2, 200,
		3, 1, 128, 1, 128, 1, 128, 1, 128, 1, 128, 1, 128,
		3, 1, 127, 1, 127, 1, 127, 1, 127, 1, 127, 1, 127,
		3, 1, 129, 1, 129, 1, 129, 1, 129, 1, 129, 1, 129,
		3, 2, 9, 2, 0, 2, 9, 2, 0, 2, 9, 2, 0}, uint8(1), uint8(2))
	for seed := int64(1); seed <= 4; seed++ { // the former seeded differential streams
		blob := make([]byte, 2000) // ≈ 175 records: deep enough for a non-time cut
		rand.New(rand.NewSource(seed)).Read(blob)
		f.Add(blob, uint8(seed), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte, tailRaw, schemaRaw uint8) {
		sch := sch3()
		if p := int(schemaRaw % 4); p > 0 {
			sch = schTime(p - 1)
		}
		eng := NewSharded(sch, Options{})
		eng.tailCap = 4 + int(tailRaw%13) // carries every few records
		app := NewSharded(sch, Options{Append: true})
		app.tailCap = eng.tailCap // seals every few records
		sc := NewScan(sch)
		check := func(rect schema.Rect) {
			want := sc.Query(rect)
			st := NewStatic(sch, sc.recs)
			for name, e := range map[string]interface {
				VisitBatches(schema.Rect, func([]uint64, []int32))
				Visit(schema.Rect, func(schema.Record))
				Query(schema.Rect) []schema.Record
				Count(schema.Rect) int
			}{"static": st, "sharded": eng, "append": app} {
				var batched []schema.Record
				e.VisitBatches(rect, func(rows []uint64, sel []int32) {
					const arity = 4
					if len(rows)%arity != 0 || len(rows) > leafRows*arity || len(sel) == 0 {
						t.Fatalf("%s batch over %v: %d words, %d selected", name, rect, len(rows), len(sel))
					}
					for j, o := range sel {
						if o%arity != 0 || int(o) >= len(rows) || (j > 0 && o <= sel[j-1]) {
							t.Fatalf("%s batch over %v: offsets %v in %d words are not ascending row starts", name, rect, sel, len(rows))
						}
						rec := rows[o : o+arity]
						if !rectContains(sc.bounds, rect, rec) {
							t.Fatalf("%s batch over %v selected %v, outside it", name, rect, rec)
						}
						batched = append(batched, rec)
					}
				})
				if !sameRecs(batched, want) {
					t.Fatalf("%s VisitBatches %v: %d records, oracle %d", name, rect, len(batched), len(want))
				}
				var visited []schema.Record
				e.Visit(rect, func(rec schema.Record) { visited = append(visited, rec) })
				if !sameRecs(visited, want) {
					t.Fatalf("%s Visit %v: %d records, oracle %d", name, rect, len(visited), len(want))
				}
				if got := e.Query(rect); !sameRecs(got, want) {
					t.Fatalf("%s Query %v: %d records, oracle %d", name, rect, len(got), len(want))
				}
				if got := e.Count(rect); got != len(want) {
					t.Fatalf("%s Count %v = %d, oracle %d", name, rect, got, len(want))
				}
			}
		}
		for i := 0; i+7 <= len(data); {
			if data[i]%4 != 3 { // insert: 3 coordinates, payload = ordinal
				rec := schema.Record{
					fuzzVal(data[i+1], data[i+2]), fuzzVal(data[i+3], data[i+4]),
					fuzzVal(data[i+5], data[i+6]), uint64(i),
				}
				eng.Insert(rec)
				app.Insert(rec)
				sc.Insert(rec)
				var all []schema.Record
				eng.All(func(rec schema.Record) bool { all = append(all, rec); return true })
				if eng.Len() != sc.Len() || !sameRecs(all, append([]schema.Record(nil), sc.recs...)) {
					t.Fatalf("after insert %d: Len %d, All streams %d, oracle %d", i, eng.Len(), len(all), sc.Len())
				}
				all = all[:0] // an appending ladder streams in insertion order
				app.All(func(rec schema.Record) bool { all = append(all, rec); return true })
				if app.Len() != sc.Len() || !slices.EqualFunc(all, sc.recs, slices.Equal) {
					t.Fatalf("after insert %d: appending Len %d, All streams %d, not the oracle's %d in order", i, app.Len(), len(all), sc.Len())
				}
				i += 7
				continue
			}
			if i+13 > len(data) {
				break
			}
			rect := schema.Rect{Lo: make([]uint64, 3), Hi: make([]uint64, 3)}
			for d := 0; d < 3; d++ {
				rect.Lo[d] = fuzzVal(data[i+1+4*d], data[i+2+4*d])
				rect.Hi[d] = fuzzVal(data[i+3+4*d], data[i+4+4*d])
				if data[i]&4 == 0 && rect.Lo[d] > rect.Hi[d] { // mostly well-formed
					rect.Lo[d], rect.Hi[d] = rect.Hi[d], rect.Lo[d]
				}
			}
			check(rect)
			i += 13
		}
		// Fixed probes on the final state: everything, the top corner the
		// clamp folds out-of-range values into, one past it, and edges
		// straddling the bound on one dim.
		const b = 9999
		m := uint64(math.MaxUint64)
		for _, rc := range []schema.Rect{
			{Lo: []uint64{0, 0, 0}, Hi: []uint64{b, b, b}},
			{Lo: []uint64{0, 0, 0}, Hi: []uint64{m, m, m}},
			{Lo: []uint64{b, b, b}, Hi: []uint64{b, b, b}},
			{Lo: []uint64{b, 0, 0}, Hi: []uint64{b + 1, b - 1, b}},
			{Lo: []uint64{b + 1, 0, 0}, Hi: []uint64{m, m, m}}, // Lo above the bound: empty
			{Lo: []uint64{0, b - 1, 0}, Hi: []uint64{b - 1, b - 1, m}},
		} {
			check(rc)
		}
		if got := eng.Count(schema.Rect{Lo: []uint64{b + 1, 0, 0}, Hi: []uint64{m, m, m}}); got != 0 {
			t.Fatalf("Lo above the bound matched %d records", got)
		}
		if eng.Len() != sc.Len() || app.Len() != sc.Len() {
			t.Fatalf("Len: sharded %d appending %d oracle %d", eng.Len(), app.Len(), sc.Len())
		}
		app.Compact() // one indexed level: answers as the oracle does
		check(schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{b, b, b}})
	})
}

// TestViewContract pins what a record handed out by the arena engine is:
// a capped, read-only view that survives everything the engine does
// afterwards.
func TestViewContract(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	recs := make([]schema.Record, 500)
	for i := range recs {
		recs[i] = randRec(r)
	}
	t.Run("append cannot touch the neighbour row", func(t *testing.T) {
		s := NewStatic(sch3(), recs)
		before := append([]uint64(nil), s.rows...)
		visit := func(rec schema.Record) {
			if len(rec) != 4 || cap(rec) != 4 {
				t.Fatalf("view len %d cap %d, want 4/4", len(rec), cap(rec))
			}
			grown := append(rec, 0xdead, 0xbeef)
			grown[len(grown)-1]++
		}
		s.Visit(fullRect(), visit)
		s.All(func(rec schema.Record) bool { visit(rec); return true })
		for i, v := range s.rows {
			if v != before[i] {
				t.Fatalf("rows[%d] changed from %d to %d by an append to a view", i, before[i], v)
			}
		}
	})
	t.Run("records returned before a merge read the same after it", func(t *testing.T) {
		e := smallTail(16)
		for _, rec := range recs {
			e.Insert(rec)
		}
		held := e.Query(fullRect()) // views into every level and the tail
		for _, rec := range held {
			if len(rec) != 4 || cap(rec) != 4 {
				t.Fatalf("view len %d cap %d, want 4/4", len(rec), cap(rec))
			}
		}
		want := make([]schema.Record, len(held))
		for i, rec := range held {
			want[i] = rec.Clone()
		}
		for i := 0; i < 5000; i++ { // many carries: every tail is retired, every arena rebuilt several times
			e.Insert(randRec(r))
		}
		e.Compact()
		for i := range held {
			for k := range held[i] {
				if held[i][k] != want[i][k] {
					t.Fatalf("held record %d attr %d reads %d after merges, was %d", i, k, held[i][k], want[i][k])
				}
			}
		}
	})
	t.Run("a tail view survives its carry and append cannot touch the next row", func(t *testing.T) {
		e := smallTail(16)
		for _, rec := range recs[:10] { // all ten sit in the tail: no level exists yet
			e.Insert(rec)
		}
		if s := e.Shape(); len(s.Levels) != 0 || s.TailRecords != 10 {
			t.Fatalf("fixture: %+v, want ten tail records and no level", s)
		}
		held := e.Query(fullRect())
		for i, rec := range held { // the tail streams in insertion order
			if len(rec) != 4 || cap(rec) != 4 || !slices.Equal(rec, recs[i]) {
				t.Fatalf("tail view %d = %v (cap %d), inserted %v", i, rec, cap(rec), recs[i])
			}
			grown := append(rec, 0xdead, 0xbeef)
			grown[len(grown)-1]++
		}
		for _, rec := range recs[10:400] { // retires that tail, then carries what it became, many times
			e.Insert(rec)
		}
		e.Compact()
		for i, rec := range held {
			if !slices.Equal(rec, recs[i]) {
				t.Fatalf("tail view %d reads %v after its carry, was %v", i, rec, recs[i])
			}
		}
		if got := e.Query(fullRect()); !sameRecs(got, append([]schema.Record(nil), recs[:400]...)) {
			t.Fatalf("engine holds %d records after appends to tail views, want the 400 inserted", len(got))
		}
	})
	t.Run("an appending ladder's sealed tail is its level: views survive seals and Compact", func(t *testing.T) {
		e := NewSharded(sch3(), Options{Append: true})
		e.tailCap = 16
		for _, rec := range recs[:40] { // two sealed levels and eight rows in the tail
			e.Insert(rec)
		}
		held := e.Query(fullRect()) // levels, then tail, each scanned in insertion order
		for i, rec := range held {
			if len(rec) != 4 || cap(rec) != 4 || !slices.Equal(rec, recs[i]) {
				t.Fatalf("view %d = %v (cap %d), inserted %v", i, rec, cap(rec), recs[i])
			}
			grown := append(rec, 0xdead, 0xbeef)
			grown[len(grown)-1]++
		}
		for _, rec := range recs[40:] { // seals the held tail, then many more
			e.Insert(rec)
		}
		for i, rec := range held {
			if !slices.Equal(rec, recs[i]) {
				t.Fatalf("view %d reads %v after seals, was %v", i, rec, recs[i])
			}
		}
		e.Compact()
		for i, rec := range held {
			if !slices.Equal(rec, recs[i]) {
				t.Fatalf("view %d reads %v after Compact, was %v", i, rec, recs[i])
			}
		}
		if got := e.Query(fullRect()); !sameRecs(got, append([]schema.Record(nil), recs...)) {
			t.Fatalf("engine holds %d records after appends to views, want the %d inserted", len(got), len(recs))
		}
	})
}

// TestVisitConcurrentWithMerges runs Visit (and the wrappers over it)
// against writers that push the ladder through carry after carry, and
// asserts the snapshot contract: a visit sees every record acknowledged
// before it began exactly once, and no record twice. Record (w, i) is a
// pure function of its writer and ordinal, so a reader knows what it
// must find, and every record carries a checksum of its coordinates as
// payload, so a torn or recycled row cannot pass for a record.
// The same runs on an appending ladder, whose tails are sealed as they
// fill instead. Meaningful under -race.
func TestVisitConcurrentWithMerges(t *testing.T) {
	t.Run("merging", func(t *testing.T) { visitConcurrentWithWriters(t, smallTail(16)) })
	t.Run("appending", func(t *testing.T) {
		e := NewSharded(sch3(), Options{Append: true})
		e.tailCap = 16
		visitConcurrentWithWriters(t, e)
	})
}

func visitConcurrentWithWriters(t *testing.T, e *Sharded) {
	const writers, readers, perWriter = 4, 4, 3000
	sch := sch3()
	mk := func(w, i int) schema.Record {
		rec := schema.Record{uint64(i*7919+w*13)%10000 + uint64(i%3)*6000, uint64(i), uint64(w), 0} // a third above the bound
		rec[3] = rec[0]*31 + rec[1]*17 + rec[2] + 5
		return rec
	}
	var acked [writers]atomic.Int64
	var rounds atomic.Int64 // completed reader rounds: writers pace on it so visits overlap carries
	stop := make(chan struct{})
	var rg, wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		rg.Add(1)
		go func(seed int64) {
			defer rg.Done()
			r := rand.New(rand.NewSource(seed))
			seen := make([]int, writers*perWriter)
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				var floor [writers]int
				for w := range floor {
					floor[w] = int(acked[w].Load())
				}
				q := fullRect()
				if round%2 == 1 {
					q = randRect(r)
				}
				clear(seen)
				n := 0
				e.Visit(q, func(rec schema.Record) {
					n++
					if len(rec) != 4 || rec[2] >= writers || rec[1] >= perWriter ||
						!slices.Equal(rec, mk(int(rec[2]), int(rec[1]))) ||
						!q.ContainsRecord(sch, rec) {
						t.Errorf("Visit %v yielded a bad record %v", q, rec)
						return
					}
					seen[int(rec[2])*perWriter+int(rec[1])]++
				})
				for w := 0; w < writers; w++ {
					for i := 0; i < perWriter; i++ {
						switch c := seen[w*perWriter+i]; {
						case c > 1:
							t.Errorf("Visit %v saw record (%d, %d) %d times", q, w, i, c)
						case c == 0 && i < floor[w] && q.ContainsRecord(sch, mk(w, i)):
							t.Errorf("Visit %v missed acknowledged record (%d, %d)", q, w, i)
						}
					}
				}
				// Inserts only add, so a later count can only be larger.
				if c := e.Count(q); c < n {
					t.Errorf("Count %d after a Visit of %d", c, n)
				}
				rounds.Add(1)
			}
		}(int64(600 + g))
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				e.Insert(mk(w, i))
				acked[w].Store(int64(i + 1))
				if i%100 == 99 {
					for at := rounds.Load(); rounds.Load() == at; {
						runtime.Gosched()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if e.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", e.Len(), writers*perWriter)
	}
}
