package store

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mind/internal/schema"
)

// fuzzVal maps two fuzz bytes to an attribute value or rectangle edge
// that stresses the unclamp identity (sch3's bound is 9999) and the
// ladder's word width: spread over and past the bound, hugging it from
// both sides, near MaxUint64, straddling 2³² (half of them need 64
// bits) and tiny (duplicate-heavy). The two wide modes are one in eight,
// so a stream mixes narrow and wide tails and levels.
func fuzzVal(mode, b byte) uint64 {
	switch mode % 16 {
	case 2:
		return math.MaxUint64 - uint64(b)
	case 6:
		return 1<<32 - 128 + uint64(b)
	}
	switch mode % 4 {
	case 0, 2:
		return uint64(b) * 41 // 0 … 10455: crosses the bound
	case 1:
		return 9999 - 128 + uint64(b) // bound-128 … bound+127
	default:
		return uint64(b % 8)
	}
}

// batchRec returns record o (a word offset) of a batch as a copy.
func batchRec(rows []uint64, o, arity int) schema.Record {
	return slices.Clone(rows[o : o+arity])
}

// checkWidths holds every level and block of e to the width rule: a
// level keeps 64-bit cuts and frames, and a block counts as wide, iff it
// holds a value that needs them.
func checkWidths(t *testing.T, name string, e *Sharded) {
	t.Helper()
	snap := e.snap.Load()
	for k, l := range snap.levels {
		var high uint64
		l.each(func(rec schema.Record) bool { high |= highBits(rec); return true })
		if l.isWide() != (high != 0) {
			t.Fatalf("%s level %d of %d rows: wide %v, but holds a value ≥ 2³² %v", name, k, l.Len(), l.isWide(), high != 0)
		}
	}
	for k := range snap.blocks {
		b := &snap.blocks[k]
		var high uint64
		b.each(func(rec schema.Record) bool { high |= highBits(rec); return true })
		if b.isWide() != (high != 0) {
			t.Fatalf("%s block %d of %d rows: wide %v, but holds a value ≥ 2³² %v", name, k, b.n, b.isWide(), high != 0)
		}
	}
}

// checkBlocks holds every sealed block and every leaf of every level of
// e to its frames: each column's reference is its values' minimum and,
// on an indexed column (and on every column of a block), the maximum
// their maximum — the box is the extent — the shift is the trailing
// zeros every offset from the reference shares and no more, and the
// width the bits the largest shifted offset needs. A level's leaves also
// partition its rows: 16 to 32 each, or all of them in one leaf when
// there are fewer than 33.
func checkBlocks(t *testing.T, e *Sharded) {
	t.Helper()
	snap := e.snap.Load()
	for k := range snap.blocks {
		b := &snap.blocks[k]
		var frames []schema.Frame
		for c := 0; c < b.arity; c++ {
			ref, hi, shift, width := b.frame(c)
			frames = append(frames, schema.Frame{Ref: ref, Hi: hi, Shift: shift, Width: width})
		}
		checkFrames(t, fmt.Sprintf("block %d", k), appendBlock[uint64](nil, b), b.arity, b.arity, frames)
	}
	for k, l := range snap.levels {
		rows := 0
		for j := 0; j < l.leaves(); j++ {
			leaf := appendLeaf[uint64](nil, l, j)
			n := len(leaf) / l.arity
			if l.Len() > leafRows && (n < leafRows/2 || n > leafRows) || l.Len() <= leafRows && n != l.Len() {
				t.Fatalf("level %d of %d rows: leaf %d holds %d rows", k, l.Len(), j, n)
			}
			rows += n
			var frames []schema.Frame
			if l.isWide() {
				frames = l.wide.frames(l.geom, j, nil)
			} else {
				frames = l.narrow.frames(l.geom, j, nil)
			}
			checkFrames(t, fmt.Sprintf("level %d of %d rows, leaf %d", k, l.Len(), j), leaf, l.arity, l.dims, frames)
		}
		if rows != l.Len() {
			t.Fatalf("level %d of %d rows: its leaves hold %d", k, l.Len(), rows)
		}
	}
}

// checkFrames holds one packed run's frames to its rows (stride arity);
// the first maxed columns keep a maximum.
func checkFrames(t *testing.T, name string, rows []uint64, arity, maxed int, frames []schema.Frame) {
	t.Helper()
	for c, f := range frames {
		lo, top, differ := uint64(math.MaxUint64), uint64(0), uint64(0)
		for i := c; i < len(rows); i += arity {
			lo, top, differ = min(lo, rows[i]), max(top, rows[i]), differ|(rows[i]-f.Ref)
		}
		wantShift := uint(0)
		if differ != 0 {
			wantShift = uint(bits.TrailingZeros64(differ))
		}
		if c >= maxed {
			f.Hi = top // no maximum kept: the width is held to the values' extent
		}
		if f.Ref != lo || f.Hi != top || f.Shift != wantShift || f.Width != uint(bits.Len64((top-lo)>>wantShift)) {
			t.Fatalf("%s column %d: frame ref %d max %d shift %d width %d; values span [%d, %d], offsets share %d trailing zeros",
				name, c, f.Ref, f.Hi, f.Shift, f.Width, lo, top, wantShift)
		}
	}
}

// FuzzStoreOracle is the differential contract of the indexed engines:
// whatever the stream — attribute values above the schema bound,
// rectangle edges at, just below and above it, Lo above the bound (must
// be empty), inverted rectangles, records straddling tail → ladder
// carries or seals — a one-level ladder of every record so far (oneLevel:
// one Static), Sharded and an appending Sharded (Options.Append, sealing
// a tail every few records and compacted at the end) must answer
// VisitBatches, Visit, Query and Count exactly as the Scan oracle, which
// clamps every record the slow way (a batch must also hold whole 64-bit
// rows, at most a leaf of them, whatever width its level keeps, and
// select ascending row starts inside the rectangle), and both ladders' Len and All must track
// it after every op — the appending one's All in insertion order. The engines
// test RAW values against an unclamped rectangle; this is the test that
// breaks if that identity does. The schema is sch3 (round robin cuts) or
// sch3 with a time attribute at position 0, 1 or 2, so every phase of
// the time-first cut schedule (schema.CutDim) is pruned on against the
// oracle. Values straddle 2³² too, so narrow and wide tails, carries and
// seals mix, and every level of both ladders is held to the width rule
// (checkWidths) after every insert, and every sealed block to its frames
// (checkBlocks). In packed-block mode (schemaRaw bit 3) the payload
// column is fuzzed as the coordinates are instead of counting inserts,
// so a block's payload may be constant (width 0), span all 64 bits or
// straddle 2³², beside coordinates that do the same.
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
	// Width transitions, tail 4: narrow levels, a wide tail carried into
	// a narrow level, a narrow tail carried into the wide level that made,
	// and a narrow level beside it; the appending ladder seals the same
	// tails, narrow and wide, and Compact merges them all.
	narrowRec := func(k byte) []byte { return []byte{0, 0, k, 1, k, 3, k} }
	wideRec := func(k byte) []byte { return []byte{0, 6, 100 + k, 0, k, 3, k} } // x = 2³² - 28 + k
	everything := []byte{3, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0}
	var widths []byte
	for k := byte(0); k < 24; k++ {
		if k == 7 {
			widths = append(widths, wideRec(k+28)...) // the 8th record: ≥ 2³²
		} else {
			widths = append(widths, narrowRec(k)...)
		}
		if k%4 == 3 {
			widths = append(widths, everything...)
		}
	}
	f.Add(widths, uint8(0), uint8(0))
	// A value just below 2³² keeps its levels narrow; tail 6, time at 0.
	f.Add(append(slices.Clone(widths[:len(widths)/2]), wideRec(0)...), uint8(2), uint8(1))
	for seed := int64(1); seed <= 4; seed++ { // the former seeded differential streams
		blob := make([]byte, 2000) // ≈ 175 records: deep enough for a non-time cut
		rand.New(rand.NewSource(seed)).Read(blob)
		f.Add(blob, uint8(seed), uint8(seed))
	}
	// Packed-block mode, tail 4: a block whose payload is constant (width
	// 0), one whose payload spans all 64 bits beside an x that does too,
	// and one whose x and payload straddle 2³²; then rectangles on x over
	// two more blocks, x in [0, 123] and x in [4100, 4223]: the first
	// block inside and the second disjoint, both straddling, both inside.
	// An insert's payload mode is its op byte >> 2, its byte z's.
	packedRec := func(op, xm, xb, z byte) []byte { return []byte{op, xm, xb, 0, xb, 0, z} }
	var packed []byte
	for k := byte(0); k < 4; k++ {
		packed = append(packed, packedRec(12, 0, k, 8*k)...) // payload z%8 = 0
	}
	packed = append(packed, packedRec(8, 2, 0, 0)...) // x and payload MaxUint64
	packed = append(packed, packedRec(0, 0, 0, 0)...) // x and payload 0
	packed = append(packed, packedRec(8, 2, 9, 3)...)
	packed = append(packed, packedRec(0, 0, 7, 1)...)
	for k := byte(0); k < 4; k++ {
		packed = append(packed, packedRec(24, 6, 126+k, 126+k)...) // 2³² - 2 … 2³² + 1
	}
	for k := byte(0); k < 4; k++ {
		packed = append(packed, packedRec(0, 0, k, k)...)
	}
	for k := byte(100); k < 104; k++ {
		packed = append(packed, packedRec(0, 0, k, k)...)
	}
	xRect := func(lo, hi byte) []byte { return []byte{3, 0, lo, 0, hi, 0, 0, 2, 0, 0, 0, 2, 0} }
	packed = append(packed, xRect(0, 3)...)
	packed = append(packed, xRect(1, 101)...)
	packed = append(packed, xRect(0, 103)...)
	f.Add(packed, uint8(0), uint8(8))
	// One level of 128 rows, tail 16: x, y and z all rise with the insert
	// order, so the cuts on x and y make four leaves of 32 consecutive
	// rows, and a rectangle on z alone — z in [1312, 3280], rows 32–80 —
	// finds one leaf inside it, one straddling it and two outside it by
	// their boxes, where no cut prunes.
	var leaves []byte
	for k := byte(0); k < 128; k++ {
		leaves = append(leaves, 0, 0, k, 0, k, 0, k)
	}
	leaves = append(leaves, 3, 0, 0, 1, 128, 0, 0, 1, 128, 0, 32, 0, 80)
	f.Add(leaves, uint8(12), uint8(0))
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
			st := oneLevel(sch, sc.recs)
			if high, l := slices.ContainsFunc(sc.recs, func(rec schema.Record) bool { return highBits(rec) != 0 }), levelOf(st); l.isWide() != high {
				t.Fatalf("level of %d records: wide %v, holds a value ≥ 2³² %v", l.Len(), l.isWide(), high)
			}
			for name, e := range map[string]*Sharded{"static": st, "sharded": eng, "append": app} {
				var batched []schema.Record
				e.VisitBatches(rect, func(b *schema.Batch) {
					rows, sel := b.Rows()
					const arity = 4
					words := len(rows)
					if words == 0 || words%arity != 0 || words > leafRows*arity || len(sel) == 0 || len(sel) > words/arity {
						t.Fatalf("%s batch over %v: %d words, %d selected; want whole 64-bit rows, at most a leaf of them", name, rect, words, len(sel))
					}
					for j, o := range sel {
						if o%arity != 0 || int(o) >= words || (j > 0 && o <= sel[j-1]) {
							t.Fatalf("%s batch over %v: offsets %v in %d words are not ascending row starts", name, rect, sel, words)
						}
						rec := batchRec(rows, int(o), arity)
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
			if data[i]%4 != 3 { // insert: 3 coordinates, payload = ordinal or fuzzed
				rec := schema.Record{
					fuzzVal(data[i+1], data[i+2]), fuzzVal(data[i+3], data[i+4]),
					fuzzVal(data[i+5], data[i+6]), uint64(i),
				}
				if schemaRaw&8 != 0 {
					rec[3] = fuzzVal(data[i]>>2, data[i+6])
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
				checkWidths(t, "sharded", eng)
				checkWidths(t, "append", app)
				checkBlocks(t, eng)
				checkBlocks(t, app)
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
		eng.Compact()
		checkWidths(t, "compacted", app)
		checkBlocks(t, app)
		checkBlocks(t, eng)
		check(schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{b, b, b}})
	})
}

// TestViewContract pins what a record handed out by the arena engine is:
// a capped, read-only view — of a copy, or of a tail's published rows —
// that survives everything the engine does afterwards. Its records'
// payloads need 64 bits, so every level is wide.
func TestViewContract(t *testing.T) { viewContract(t, randRec) }

// TestViewContractNarrow holds narrow levels to the same contract: their
// records fit 32 bits, so they keep 32-bit cuts and frames.
func TestViewContractNarrow(t *testing.T) {
	viewContract(t, func(r *rand.Rand) schema.Record { rec := randRec(r); rec[3] >>= 32; return rec })
}

func viewContract(t *testing.T, randRec func(*rand.Rand) schema.Record) {
	r := rand.New(rand.NewSource(81))
	recs := make([]schema.Record, 500)
	for i := range recs {
		recs[i] = randRec(r)
	}
	t.Run("append cannot touch the neighbour row", func(t *testing.T) {
		e := oneLevel(sch3(), recs)
		l := levelOf(e)
		before := slices.Clone(wideRows(l))
		visit := func(rec schema.Record) {
			if len(rec) != 4 || cap(rec) != 4 {
				t.Fatalf("view len %d cap %d, want 4/4", len(rec), cap(rec))
			}
			grown := append(rec, 0xdead, 0xbeef)
			grown[len(grown)-1]++
		}
		e.Visit(fullRect(), visit)
		e.All(func(rec schema.Record) bool { visit(rec); return true })
		for i, v := range wideRows(l) {
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

// holdViews reads rect from e through Visit and Query, and everything
// through All, and holds every record they hand out (packed runs are
// decoded into the visit's scratch, so a record that aliased it would be
// overwritten by the next read). Appending to each held record must
// reallocate rather than touch the next row. The check it returns holds
// every record to the values it read then.
func holdViews(t *testing.T, e *Sharded, rect schema.Rect) (check func(when string)) {
	t.Helper()
	var held, want []schema.Record
	hold := func(rec schema.Record) {
		if len(rec) != cap(rec) {
			t.Fatalf("record %v has cap %d, want %d", rec, cap(rec), len(rec))
		}
		held, want = append(held, rec), append(want, slices.Clone(rec))
	}
	e.Visit(rect, hold)
	for _, rec := range e.Query(rect) {
		hold(rec)
	}
	e.All(func(rec schema.Record) bool { hold(rec); return true })
	for _, rec := range held {
		grown := append(rec, 0xdead)
		grown[len(grown)-1]++
	}
	return func(when string) {
		t.Helper()
		for i, rec := range held {
			if !slices.Equal(rec, want[i]) {
				t.Fatalf("%s: held record %d reads %v, was %v", when, i, rec, want[i])
			}
		}
	}
}

// TestPackedBlockViews: a read of a sealed block decodes it into the
// visit's scratch, a leaf-sized run at a time, so a batch is valid only
// while its callback runs, and a record handed out is a copy that
// survives. A block inside the window is handed over whole and one
// straddling it row by row; the records Visit, Query and All returned
// are held while the same blocks are read again (a record aliasing the
// scratch would be overwritten) and while more tails seal and Compact
// merges every block away.
func TestPackedBlockViews(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	e := NewSharded(sch3(), Options{Append: true})
	e.tailCap = 16
	var recs []schema.Record
	for i := 0; i < 64; i++ { // four blocks: x rises with i, so each block's x range is its own
		rec := randRec(r)
		rec[0], rec[3] = uint64(i)*100, uint64(i)
		recs = append(recs, rec)
		e.Insert(rec)
	}
	if s := e.Shape(); len(s.Levels) != 4 || s.TailRecords != 0 {
		t.Fatalf("fixture: %+v, want four sealed blocks", s)
	}
	// x in [1600, 3950]: block 1 (rows 16–31, x 1600–3100) inside, block 2
	// (rows 32–47, x 3200–4700) straddling, blocks 0 and 3 disjoint.
	rect := schema.Rect{Lo: []uint64{1600, 0, 0}, Hi: []uint64{3950, 9999, 9999}}
	var batches [][]int32
	var got []schema.Record
	e.VisitBatches(rect, func(b *schema.Batch) {
		rows, sel := b.Rows()
		batches = append(batches, slices.Clone(sel))
		for _, o := range sel {
			got = append(got, batchRec(rows, int(o), 4))
		}
	})
	if len(batches) != 2 || len(batches[0]) != 16 || !slices.EqualFunc(got, recs[16:16+16+8], slices.Equal) {
		t.Fatalf("fixture: batches %v holding %v; want the inside block whole and 8 rows of the straddling one", batches, got)
	}
	check := holdViews(t, e, rect)
	for i := 0; i < 3; i++ {
		e.Count(rect)
		e.Query(fullRect())
		e.VisitBatches(fullRect(), func(*schema.Batch) {})
	}
	check("after more reads of the same blocks")
	for i := 0; i < 200; i++ {
		e.Insert(randRec(r))
	}
	e.Compact()
	check("after more seals and Compact")
}

// TestPackedLeafViews holds a merging ladder's packed leaves to the same
// contract. x rises with the insert order and y and z follow it, so the
// one level's leaves split on x and each holds its own x range: a window
// on x alone reaches leaves outside it (skipped by their box), inside it
// (handed over whole, every row selected) and straddling it. The
// records Visit, Query and All hand out survive reads of the same
// leaves, more carries and Compact.
func TestPackedLeafViews(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	e := smallTail(16)
	var recs []schema.Record
	for i := 0; i < 256; i++ { // one level of 256 rows: eight leaves of 32
		rec := schema.Record{uint64(i) * 30, uint64(i) * 30, uint64(i) * 30, r.Uint64() >> 32}
		recs = append(recs, rec)
		e.Insert(rec)
	}
	snap := e.snap.Load()
	if len(snap.levels) != 1 || snap.levels[0].leaves() != 8 || snap.levels[0].isWide() || snap.tail.n.Load() != 0 {
		t.Fatalf("fixture: %+v, want one narrow level of eight leaves", e.Shape())
	}
	l := snap.levels[0]
	// z in [1000, 4000]: rows 34–133. Leaves hold 32 consecutive rows each.
	rect := schema.Rect{Lo: []uint64{0, 0, 1000}, Hi: []uint64{9999, 9999, 4000}}
	var buf windowBuf
	w, _ := openWindow(l.bounds, rect, &buf)
	var outside, inWhole, straddle int
	for j := 0; j < l.leaves(); j++ {
		switch skip, in := boxTest(w.con, l.narrow.box[j*(l.arity+l.dims):], 1, l.arity); {
		case skip:
			outside++
		case in:
			inWhole++
		default:
			straddle++
		}
	}
	if outside != 4 || inWhole != 2 || straddle != 2 {
		t.Fatalf("fixture: %d leaves outside the window, %d inside, %d straddling; want 4, 2, 2", outside, inWhole, straddle)
	}
	var got []schema.Record
	whole := 0
	e.VisitBatches(rect, func(b *schema.Batch) {
		rows, sel := b.Rows()
		if len(sel) == leafRows {
			whole++
		}
		for _, o := range sel {
			got = append(got, batchRec(rows, int(o), 4))
		}
	})
	if whole != 2 || !sameRecs(got, slices.Clone(recs[34:134])) {
		t.Fatalf("%d leaves handed over whole, %d records; want 2 and rows 34–133", whole, len(got))
	}
	if n := e.Count(rect); n != 100 { // two leaves counted undecoded, two by their z column
		t.Fatalf("Count = %d, want 100", n)
	}
	check := holdViews(t, e, rect)
	for i := 0; i < 3; i++ {
		e.Count(rect)
		e.Query(fullRect())
		e.VisitBatches(fullRect(), func(*schema.Batch) {})
	}
	check("after more reads of the same leaves")
	for i := 0; i < 500; i++ {
		e.Insert(randRec(r))
	}
	e.Compact()
	check("after more carries and Compact")
}

// TestLeafScratchConcurrent: every visit decodes into its own scratch.
// Readers batch-read the same compacted levels at once and check every
// selected row inside its callback — its payload is a checksum of its
// coordinates, so a row decoded by another reader into a shared buffer
// cannot pass — and every answer's size against the oracle's. Meaningful
// under -race.
func TestLeafScratchConcurrent(t *testing.T) {
	e := NewSharded(sch3(), Options{})
	sc := NewScan(sch3())
	r := rand.New(rand.NewSource(84))
	for i := 0; i < 5000; i++ {
		rec := randRec(r)
		rec[3] = rec[0]*31 + rec[1]*17 + rec[2] + 5
		e.Insert(rec)
		sc.Insert(rec)
	}
	rects := make([]schema.Rect, 64)
	want := make([]int, len(rects))
	for i := range rects {
		rects[i] = randRect(r)
		want[i] = sc.Count(rects[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				k := (round*7 + g) % len(rects)
				n := 0
				e.VisitBatches(rects[k], func(b *schema.Batch) {
					rows, sel := b.Rows()
					for _, o := range sel {
						rec := batchRec(rows, int(o), 4)
						if rec[3] != rec[0]*31+rec[1]*17+rec[2]+5 || !rects[k].ContainsRecord(sch3(), rec) {
							t.Errorf("reader %d: batch row %v is not a stored record inside %v", g, rec, rects[k])
						}
					}
					n += len(sel)
				})
				if n != want[k] {
					t.Errorf("reader %d: %d records inside %v, oracle %d", g, n, rects[k], want[k])
				}
			}
		}(g)
	}
	wg.Wait()
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
