package mind

import (
	"math/rand"
	"slices"
	"testing"

	"mind/internal/embed"
	"mind/internal/schema"
	"mind/internal/store"
	"mind/internal/summary"
	"mind/internal/wire"
)

// TestStoreBatchConsumers holds the node's consumers of a store batch —
// the answer encoder, both from the packed view (wire.Groups.AppendBatch)
// and from its decoded rows (AppendRows), the aggregate fold
// (summary.Fold.AddBatch) and the owner's repeat probe (holds) — to the
// records inserted, on a primary ladder whose levels keep both
// widths: two narrow levels, one wide level (it holds the one record
// whose octets are 2⁴⁰) and a tail. Every batch is 64-bit rows whatever
// its level keeps, so the answer must decode to exactly the records
// inserted, bit for bit; the fold must count and sum exactly what a
// fold over the Scan oracle does; and every stored record must be found
// by its point.
func TestStoreBatchConsumers(t *testing.T) {
	sch := schema.Index2(86400)
	ix := newIndex(sch, embed.Uniform(sch.Bounds()))
	oracle := store.NewScan(sch)
	r := rand.New(rand.NewSource(52))
	var recs []schema.Record
	// 1024 then 512 narrow records carry into two narrow levels, the next
	// 256 (one wide among them) into a wide one, and 100 stay in the tail.
	for i := 0; i < 1024+512+256+100; i++ {
		rec := schema.Record{uint64(r.Intn(256)) << 24, uint64(r.Intn(86400)), uint64(r.Intn(1 << 21)), r.Uint64() >> 32, uint64(r.Intn(64))}
		if i == 1024+512+100 {
			rec[2] = 1 << 40
		}
		recs = append(recs, rec)
		ix.primary.Insert(0, rec)
		oracle.Insert(rec)
	}
	st := ix.primary.Get(0)
	if s := st.Shape(); len(s.Levels) != 3 || s.WideLevels != 1 || s.TailRecords != 100 {
		t.Fatalf("fixture: %+v, want two narrow levels, one wide level and 100 tail records", s)
	}

	bounds := sch.Bounds()
	rects := []schema.Rect{
		{Lo: []uint64{0, 0, 0}, Hi: bounds},                                    // everything, the wide record clamped in
		{Lo: []uint64{0, 20000, 0}, Hi: []uint64{bounds[0], 30000, bounds[2]}}, // a time window
		{Lo: []uint64{0, 0, 1 << 20}, Hi: bounds},                              // large flows, the wide one among them
		{Lo: []uint64{5 << 24, 0, 0}, Hi: []uint64{40 << 24, 50000, 1 << 19}},  // every dimension constrained
	}
	for _, rect := range rects {
		want := oracle.Query(rect)

		var packed, decoded wire.Groups
		st.VisitBatches(rect, packed.AppendBatch)
		st.VisitBatches(rect, func(b *schema.Batch) {
			rows, sel := b.Rows()
			decoded.AppendRows(rows, sel, b.Arity())
		})
		for name, list := range map[string]*wire.Groups{"packed": &packed, "decoded": &decoded} {
			m, err := wire.Decode(wire.Encode(&wire.QueryResp{ReqID: 1, Recs: *list}))
			if err != nil {
				t.Fatalf("%v: the %s answer does not decode: %v", rect, name, err)
			}
			if got := m.(*wire.QueryResp).Recs.Records(); !sameSorted(got, want) {
				t.Fatalf("%v: the %s answer decodes to %d records, the oracle holds %d (or their values differ)", rect, name, len(got), len(want))
			}
		}

		fold, ref := summary.NewFold(sch.Arity()), summary.NewFold(sch.Arity())
		st.VisitBatches(rect, fold.AddBatch)
		sums := make([]uint64, sch.Arity())
		for _, rec := range want {
			for i, v := range rec {
				sums[i] += v
			}
			var one schema.Batch
			one.SetRows(rec, []int32{0}, len(rec))
			ref.AddBatch(&one)
		}
		if fold.Count != uint64(len(want)) || !slices.Equal(fold.Sums, sums) {
			t.Fatalf("%v: batched fold counts %d with sums %v, the oracle %d with %v", rect, fold.Count, fold.Sums, len(want), sums)
		}
		for _, k := range []int{1, 8, 256} {
			a, b := fold.Keys.Part(k), ref.Keys.Part(k)
			if a.N() != b.N() || a.Floor() != b.Floor() || !slices.Equal(a.Top(), b.Top()) {
				t.Fatalf("%v, k=%d: the batched fold's keys differ from a fold over the oracle's records", rect, k)
			}
		}
	}

	for _, rec := range recs {
		if !ix.holds(0, rec) {
			t.Fatalf("holds misses stored record %v", rec)
		}
		other := slices.Clone(rec)
		other[4] = 64 // no stored record has this node
		if ix.holds(0, other) {
			t.Fatalf("holds finds %v, which was never stored", other)
		}
	}
}

// sameSorted reports whether a and b hold the same records, value for
// value, in any order.
func sameSorted(a, b []schema.Record) bool {
	sorted := func(recs []schema.Record) []schema.Record {
		recs = slices.Clone(recs)
		slices.SortFunc(recs, func(x, y schema.Record) int { return slices.Compare(x, y) })
		return recs
	}
	return slices.EqualFunc(sorted(a), sorted(b), slices.Equal)
}
