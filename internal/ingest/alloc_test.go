//go:build !race

package ingest

import (
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
// path: frame parse + record copy into a chunk + ring + batch flush must cost
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
	// 101 frames fill ≈ 32 chunks; settled ones come back from the pool.
	if st := eng.Stats(); st.PoolMisses > 4 {
		t.Fatalf("record chunks not recycled: %d fresh chunks for 101 frames of %d records", st.PoolMisses, count)
	}
}
