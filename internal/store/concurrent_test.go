package store

import (
	"math/rand"
	"sync"
	"testing"

	"mind/internal/schema"
)

// TestKDConcurrentInsertQuery exercises the writer-mutex/lock-free-reader
// contract under -race on ONE shard (TestShardedConcurrentInsertQuery
// spreads the writers over four): every writer contends on the same
// mutex and every carry lands beside the same readers, which query,
// count and stream concurrently; a final differential check against the
// oracle proves no record was lost or duplicated.
func TestKDConcurrentInsertQuery(t *testing.T) {
	const (
		writers       = 4
		readers       = 4
		recsPerWriter = 2000
	)
	kd := contractStore()
	recs := make([][]schema.Record, writers)
	for w := range recs {
		r := rand.New(rand.NewSource(int64(100 + w)))
		for i := 0; i < recsPerWriter; i++ {
			recs[w] = append(recs[w], randRec(r))
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
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
				q := randRect(r)
				got := kd.Query(q)
				if n := kd.Count(q); n < 0 {
					t.Errorf("negative count %d", n)
				}
				for _, rec := range got {
					if !q.ContainsRecord(sch3(), rec) {
						t.Errorf("query returned record outside rect")
					}
				}
				kd.All(func(schema.Record) bool { return true })
			}
		}(int64(200 + g))
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for _, rec := range recs[w] {
				kd.Insert(rec)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	if kd.Len() != writers*recsPerWriter {
		t.Fatalf("Len = %d, want %d", kd.Len(), writers*recsPerWriter)
	}
	sc := NewScan(sch3())
	for _, batch := range recs {
		for _, rec := range batch {
			sc.Insert(rec)
		}
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		q := randRect(r)
		a, b := kd.Query(q), sc.Query(q)
		if !sameRecs(a, b) {
			t.Fatalf("post-concurrency mismatch: kd %d recs, scan %d", len(a), len(b))
		}
	}
}

// BenchmarkStoreConcurrentQuery compares parallel read throughput of
// two read disciplines over the same 100k records in the sharded ladder
// engine (compacted: all records in one leaf-bucketed arena): its own
// lock-free snapshot reads, and the old single-big-lock discipline
// (every query serialized behind one mutex, as Node.mu used to impose).
// Run with -cpu 1,4,16: the lock-free path must scale with readers
// while the single-lock path stays flat.
func BenchmarkStoreConcurrentQuery(b *testing.B) {
	r := rand.New(rand.NewSource(37))
	sharded := NewSharded(sch3(), Options{})
	for i := 0; i < 100000; i++ {
		sharded.Insert(randRec(r))
	}
	sharded.Compact()
	// Selective window rects (≈1% of each dimension), the shape of the
	// §4.1 monitoring queries: per-query cost is tree traversal, not
	// result materialization, so read throughput can actually scale
	// with cores instead of saturating memory bandwidth.
	rects := make([]schema.Rect, 256)
	for i := range rects {
		rc := schema.Rect{Lo: make([]uint64, 3), Hi: make([]uint64, 3)}
		for d := 0; d < 3; d++ {
			lo := r.Uint64() % 9900
			rc.Lo[d], rc.Hi[d] = lo, lo+100
		}
		rects[i] = rc
	}

	// A node serves many in-flight queries per core (every sub-query of
	// every client lands here), so run 8 reader goroutines per proc:
	// with snapshots they proceed independently; behind one mutex they
	// convoy.
	b.Run("sharded", func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				_ = sharded.Query(rects[i%len(rects)])
				i++
			}
		})
	})

	b.Run("singlelock", func(b *testing.B) {
		var mu sync.Mutex
		b.ReportAllocs()
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				mu.Lock()
				_ = sharded.Query(rects[i%len(rects)])
				mu.Unlock()
				i++
			}
		})
	})
}
