//go:build !race

package ingest

import (
	"runtime"
	"runtime/debug"
	"testing"

	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/wire"
)

// poolSink acks every record as stored remotely, reusing its results
// buffer so the sink itself stays off the allocation profile.
type poolSink struct {
	results []mind.InsertResult
}

func (s *poolSink) InsertBatch(tag string, recs []schema.Record, cb func([]mind.InsertResult)) error {
	if cap(s.results) < len(recs) {
		s.results = make([]mind.InsertResult, len(recs))
	}
	res := s.results[:len(recs)]
	for i := range res {
		res[i] = mind.InsertResult{OK: true, StoredAt: "remote"}
	}
	cb(res)
	return nil
}

// TestAllocBudgetIngestParse is the CI alloc gate on the ingest parse
// path: frame parse + pooled record copy + ring + batch flush must cost
// well under one allocation per record at steady state (the budget the
// issue sets is <= 1; the structural cost is ~3 allocations per batch,
// amortized across the batch).
func TestAllocBudgetIngestParse(t *testing.T) {
	const count = 128
	recs := make([][]uint64, count)
	for i := range recs {
		recs[i] = []uint64{uint64(i) * 2654435761, uint64(i), uint64(i) % 97, 7, 0}
	}
	buf := wire.AppendFlowFrame(nil, 1, "index2-octets", 5, recs)

	eng := New(&poolSink{}, Config{
		Shards:      1,
		RingSize:    1 << 10,
		Synchronous: true,
		SelfAddr:    "self", // acks say "remote", so every record recycles
	})
	defer eng.Close()

	allocs := testing.AllocsPerRun(100, func() {
		f, err := wire.ParseFlowFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		accepted, dropped := eng.IngestFrame(&f)
		if accepted != count || dropped != 0 {
			t.Fatalf("accepted=%d dropped=%d", accepted, dropped)
		}
		if n := eng.Pump(); n != count {
			t.Fatalf("pumped %d, want %d", n, count)
		}
	})
	perRecord := allocs / count
	if perRecord > 1 {
		t.Fatalf("ingest parse path allocates %.3f per record (%.0f per %d-record frame), budget is 1",
			perRecord, allocs, count)
	}
	if st := eng.Stats(); st.PoolMisses > count*2 {
		t.Fatalf("record pool not recycling: %d misses for %d live records", st.PoolMisses, count)
	}
}

// TestFreeListFootprint: the record free list keeps what recent use
// needs, not its peak. A burst of 16 k records in flight at once — every
// one a pool miss — settles into the list, and a second burst reuses
// every one of them. Two garbage collections with no ingest in between
// then free all but idleKeep of them — the heap the engine holds beyond
// what it held empty stays under 128 KB (16 k records and their list
// slots are 1.2 MB) — so a third burst misses the pool for all but
// those. (The list used to keep all 16 k until the engine was dropped.)
// Automatic collection is off throughout, so that only the forced ones
// can drop the list.
func TestFreeListFootprint(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const records, frame = 16384, 512
	recs := make([][]uint64, frame)
	for i := range recs {
		recs[i] = []uint64{uint64(i), 1, 2, 3, 4}
	}
	f := frameOf(t, "a", recs)
	eng := New(&poolSink{}, Config{Shards: 1, RingSize: records, Synchronous: true, SelfAddr: "self"})
	defer eng.Close()
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	empty := heap()
	burst := func() uint64 {
		misses := eng.Stats().PoolMisses
		for i := 0; i < records/frame; i++ {
			eng.IngestFrame(f)
		}
		if n := eng.Pump(); n != records {
			t.Fatalf("pumped %d records, want %d", n, records)
		}
		return eng.Stats().PoolMisses - misses
	}
	if m := burst(); m != records {
		t.Fatalf("fixture: the first burst missed the pool %d times, want %d", m, records)
	}
	if m := burst(); m != 0 {
		t.Fatalf("a second burst missed the pool %d times: settled records were not kept for it", m)
	}
	if held := heap() - empty; held > 128<<10 {
		t.Fatalf("after two collections of an idle engine it still holds %d bytes more than it did empty", held)
	}
	if m := burst(); m < records-idleKeep {
		t.Fatalf("after two collections of an idle engine a burst missed the pool only %d times: the engine kept %d records, at most %d may stay", m, records-int(m), idleKeep)
	}
}
