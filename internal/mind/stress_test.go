package mind_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/transport"
	"mind/internal/transport/tcpnet"
)

// TestTCPConcurrentStress hammers one node from eight goroutines mixing
// inserts and queries. A single node owns the whole key space, so every
// insert stores locally under the ladder's writer mutex and every query
// resolves inline against its lock-free snapshot while other goroutines
// write — the concurrency a node gets from concurrent requests. Run
// under -race this is the regression net for the concurrency model.
func TestTCPConcurrentStress(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	ep, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := mind.NewNode(ep, transport.RealClock{}, mind.DefaultConfig(42))
	defer func() {
		node.Close()
		ep.Close()
	}()
	node.Bootstrap()

	sch := testSchema()
	if err := node.CreateIndex(sch, nil); err != nil {
		t.Fatal(err)
	}

	const (
		workers       = 8
		opsPerWorker  = 200
		queryEveryNth = 5
	)
	var (
		wg          sync.WaitGroup
		inserted    atomic.Uint64
		insertFails atomic.Uint64
		queried     atomic.Uint64
		queryFails  atomic.Uint64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			for i := 0; i < opsPerWorker; i++ {
				if i%queryEveryNth == 0 {
					lo := next() % 86000
					rect := schema.Rect{
						Lo: []uint64{0, lo, 0},
						Hi: []uint64{10000, lo + 400, 9999},
					}
					done := make(chan mind.QueryResult, 1)
					if err := node.Query(sch.Tag, rect, func(r mind.QueryResult) { done <- r }); err != nil {
						queryFails.Add(1)
						continue
					}
					select {
					case r := <-done:
						if !r.Complete {
							queryFails.Add(1)
						} else {
							queried.Add(1)
						}
					case <-time.After(20 * time.Second):
						queryFails.Add(1)
					}
					continue
				}
				rec := schema.Record{next() % 10000, next() % 86400, next() % 10000, uint64(w*opsPerWorker + i)}
				done := make(chan mind.InsertResult, 1)
				if err := node.Insert(sch.Tag, rec, func(r mind.InsertResult) { done <- r }); err != nil {
					insertFails.Add(1)
					continue
				}
				select {
				case r := <-done:
					if r.OK {
						inserted.Add(1)
					} else {
						insertFails.Add(1)
					}
				case <-time.After(20 * time.Second):
					insertFails.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	if insertFails.Load() != 0 || queryFails.Load() != 0 {
		t.Fatalf("failures: %d inserts, %d queries", insertFails.Load(), queryFails.Load())
	}
	wantInserts := uint64(workers * opsPerWorker * (queryEveryNth - 1) / queryEveryNth)
	if inserted.Load() != wantInserts {
		t.Fatalf("inserted %d, want %d", inserted.Load(), wantInserts)
	}

	// A final full-range query sees every insert exactly once.
	done := make(chan mind.QueryResult, 1)
	if err := node.Query(sch.Tag, fullRect(), func(r mind.QueryResult) { done <- r }); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if !r.Complete || uint64(len(r.Records)) != wantInserts {
			t.Fatalf("final query: complete=%v records=%d want=%d", r.Complete, len(r.Records), wantInserts)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("final query stalled")
	}
	t.Logf("stress: %d inserts, %d queries from %d goroutines", inserted.Load(), queried.Load(), workers)
}
