package ingest

import (
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mind/internal/cluster"
	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/transport/simnet"
	"mind/internal/wire"
)

// fakeSink is a BatchInserter that acks every record, optionally holding
// the callbacks so tests can keep records "in flight".
type fakeSink struct {
	mu       sync.Mutex
	batches  [][]schema.Record
	tags     []string
	storedAt string
	failWith error
	hold     bool
	held     []func()
}

func (s *fakeSink) InsertBatch(tag string, recs []schema.Record, cb func([]mind.InsertResult)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failWith != nil {
		return s.failWith
	}
	snap := make([]schema.Record, len(recs))
	for i, r := range recs {
		snap[i] = append(schema.Record(nil), r...)
	}
	s.batches = append(s.batches, snap)
	s.tags = append(s.tags, tag)
	results := make([]mind.InsertResult, len(recs))
	for i := range results {
		results[i] = mind.InsertResult{OK: true, StoredAt: s.storedAt}
	}
	if s.hold {
		s.held = append(s.held, func() { cb(results) })
		return nil
	}
	cb(results)
	return nil
}

func (s *fakeSink) release() {
	s.mu.Lock()
	held := s.held
	s.held = nil
	s.mu.Unlock()
	for _, f := range held {
		f()
	}
}

func frameOf(t *testing.T, tag string, recs [][]uint64) *wire.FlowFrame {
	t.Helper()
	buf := wire.AppendFlowFrame(nil, 1, tag, len(recs[0]), recs)
	f, err := wire.ParseFlowFrame(buf)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return &f
}

func TestEngineSynchronousBatching(t *testing.T) {
	total := 2*maxBatch + 10
	sink := &fakeSink{storedAt: "remote"}
	eng := New(sink, Config{Shards: 1, RingSize: 1024, Synchronous: true})
	defer eng.Close()
	for i := 0; i < total; i++ {
		if !eng.Submit("a", schema.Record{uint64(i), 1, 2}) {
			t.Fatalf("submit %d rejected", i)
		}
	}
	if n := eng.Pump(); n != total {
		t.Fatalf("Pump consumed %d, want %d", n, total)
	}
	want := []int{maxBatch, maxBatch, 10}
	if len(sink.batches) != len(want) {
		t.Fatalf("%d batches, want %d", len(sink.batches), len(want))
	}
	for i, b := range sink.batches {
		if len(b) != want[i] {
			t.Fatalf("batch %d has %d records, want %d", i, len(b), want[i])
		}
		if sink.tags[i] != "a" {
			t.Fatalf("batch %d tag %q", i, sink.tags[i])
		}
	}
	st := eng.Stats()
	if n := uint64(total); st.Received != n || st.Accepted != n || st.Acked != n || st.Failed != 0 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEngineFlushesAtTagBoundary(t *testing.T) {
	sink := &fakeSink{}
	eng := New(sink, Config{Shards: 1, RingSize: 64, Synchronous: true})
	defer eng.Close()
	tags := []string{"a", "a", "b", "b", "b", "a"}
	for i, tag := range tags {
		eng.Submit(tag, schema.Record{uint64(i)})
	}
	eng.Pump()
	for i, b := range sink.batches {
		want := map[string]int{"a": 2, "b": 3}[sink.tags[i]]
		if i == 2 {
			want = 1 // the trailing "a"
		}
		if len(b) != want {
			t.Fatalf("batch %d (%s): %d records, want %d", i, sink.tags[i], len(b), want)
		}
	}
	if len(sink.batches) != 3 {
		t.Fatalf("%d batches, want 3 (single-tag batches only)", len(sink.batches))
	}
}

func TestEngineDropWhenRingFull(t *testing.T) {
	sink := &fakeSink{}
	eng := New(sink, Config{Shards: 1, RingSize: 4, Synchronous: true})
	defer eng.Close()
	accepted := 0
	for i := 0; i < 10; i++ {
		if eng.Submit("a", schema.Record{uint64(i)}) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("accepted %d, want ring capacity 4", accepted)
	}
	st := eng.Stats()
	if st.DroppedRing != 6 || st.Accepted != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if !st.Backpressured {
		t.Fatalf("full ring did not raise backpressure")
	}
	eng.Pump()
	st = eng.Stats()
	if st.Acked != 4 || st.Received != 10 {
		t.Fatalf("after pump: %+v", st)
	}
}

func TestEngineMaxPendingAdmission(t *testing.T) {
	sink := &fakeSink{hold: true}
	eng := New(sink, Config{Shards: 1, RingSize: maxPending, Synchronous: true})
	defer eng.Close()
	for i := 0; i < maxPending; i++ {
		if !eng.Submit("a", schema.Record{uint64(i)}) {
			t.Fatalf("submit %d rejected below maxPending", i)
		}
	}
	eng.Pump() // maxPending records now in flight, callbacks held
	if st := eng.Stats(); st.Pending != maxPending {
		t.Fatalf("pending = %d, want %d", st.Pending, maxPending)
	}
	if eng.Submit("a", schema.Record{99}) {
		t.Fatalf("submit admitted past maxPending")
	}
	if st := eng.Stats(); st.DroppedPending != 1 {
		t.Fatalf("droppedPending = %d, want 1", st.DroppedPending)
	}
	sink.release()
	st := eng.Stats()
	if st.Pending != 0 || st.Acked != maxPending {
		t.Fatalf("after release: %+v", st)
	}
	if !eng.Submit("a", schema.Record{100}) {
		t.Fatalf("submit rejected after pending drained")
	}
}

func TestEngineNodePendingAdmission(t *testing.T) {
	gauge := 0
	sink := &fakeSink{}
	eng := New(sink, Config{
		Shards: 1, RingSize: 64, Synchronous: true,
		NodePending: func() int { return gauge },
	})
	defer eng.Close()
	gauge = mind.MaxPendingInserts
	if eng.Submit("a", schema.Record{1}) {
		t.Fatalf("submit admitted at mind.MaxPendingInserts")
	}
	gauge = mind.MaxPendingInserts - 1
	if !eng.Submit("a", schema.Record{2}) {
		t.Fatalf("submit rejected below mind.MaxPendingInserts")
	}
	// Backpressure rises at 3/4 of the ceiling.
	gauge = mind.MaxPendingInserts*3/4 - 1
	if eng.Backpressured() {
		t.Fatalf("backpressured below 3/4 of mind.MaxPendingInserts")
	}
	gauge = mind.MaxPendingInserts * 3 / 4
	if !eng.Backpressured() {
		t.Fatalf("not backpressured at 3/4 of mind.MaxPendingInserts")
	}
}

func TestEngineInsertErrorSettlesBatch(t *testing.T) {
	boom := errors.New("unknown index")
	sink := &fakeSink{failWith: boom}
	var results []error
	eng := New(sink, Config{
		Shards: 1, RingSize: 64, Synchronous: true, SelfAddr: "self",
		OnResult: func(tag string, rec schema.Record, res mind.InsertResult) {
			results = append(results, res.Err)
		},
	})
	defer eng.Close()
	for i := 0; i < 5; i++ {
		eng.Submit("a", schema.Record{uint64(i)})
	}
	eng.Pump()
	st := eng.Stats()
	if st.Failed != 5 || st.Pending != 0 || st.Acked != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(results) != 5 {
		t.Fatalf("OnResult saw %d records, want 5", len(results))
	}
	for _, err := range results {
		if !errors.Is(err, boom) {
			t.Fatalf("OnResult err = %v, want %v", err, boom)
		}
	}
}

// TestEngineRecordRecycling checks the record-chunk lifecycle: every
// settled record gives its chunk back (no new pool misses on the second
// wave), wherever it was stored — the node keeps none of them.
func TestEngineRecordRecycling(t *testing.T) {
	recs := make([][]uint64, 16)
	for i := range recs {
		recs[i] = []uint64{uint64(i), 1, 2}
	}

	t.Run("remote recycles", func(t *testing.T) {
		sink := &fakeSink{storedAt: "remote"}
		eng := New(sink, Config{Shards: 1, RingSize: 64, Synchronous: true, SelfAddr: "self"})
		defer eng.Close()
		eng.IngestFrame(frameOf(t, "a", recs))
		eng.Pump()
		misses := eng.Stats().PoolMisses
		if misses == 0 {
			t.Fatalf("first wave had no pool misses")
		}
		eng.IngestFrame(frameOf(t, "a", recs))
		eng.Pump()
		if got := eng.Stats().PoolMisses; got != misses {
			t.Fatalf("second wave missed the pool (%d -> %d): records not recycled", misses, got)
		}
	})

	t.Run("local recycles", func(t *testing.T) {
		// A one-node overlay stores every record itself, and a local
		// trigger sees every one. Once each insert settles its chunk may
		// be reused; scribbling over the whole chunk must reach neither
		// the stored rows nor the trigger's events.
		c, err := cluster.New(cluster.Options{N: 1, Seed: 3, Sim: simnet.Config{Seed: 3}, Node: mind.DefaultConfig(3)})
		if err != nil {
			t.Fatal(err)
		}
		sch := schema.Index2(1 << 20)
		if err := c.CreateIndex(sch); err != nil {
			t.Fatal(err)
		}
		node := c.Nodes[0]
		all := schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{0xffffffff, 1 << 20, schema.OctetsBound}}
		var events []string
		if _, err := node.RegisterTrigger(sch.Tag, all, func(ev mind.TriggerEvent) {
			events = append(events, recKey(ev.Record))
		}); err != nil {
			t.Fatal(err)
		}
		var want []string
		wide := make([][]uint64, 16)
		for i := range wide {
			wide[i] = []uint64{uint64(i) << 24, uint64(1000 + i), uint64(40 * i), 7, 1}
			want = append(want, recKey(wide[i]))
		}
		eng := New(node, Config{Shards: 1, RingSize: 64, Synchronous: true, SelfAddr: node.Addr()})
		defer eng.Close()
		eng.IngestFrame(frameOf(t, sch.Tag, wide))
		eng.Pump()
		misses := eng.Stats().PoolMisses
		// Every record lies in the shard's open chunk, and once they have
		// settled its one remaining hold is the shard's own.
		open := eng.shards[0].open
		if st := eng.Stats(); st.Acked != uint64(len(wide)) || open.live.Load() != 1 {
			t.Fatalf("%d acked, %d holds on the open chunk; want %d and 1", st.Acked, open.live.Load(), len(wide))
		}
		for j := range open.vals {
			open.vals[j] = 0xdeadbeef
		}
		res, _, err := c.QueryWait(0, sch.Tag, all)
		if err != nil || !res.Complete {
			t.Fatalf("query: %v, complete %v", err, res.Complete)
		}
		var got []string
		for _, rec := range res.Records {
			got = append(got, recKey(rec))
		}
		sort.Strings(got)
		sort.Strings(events)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("stored records after the pool was overwritten:\n got %v\nwant %v", got, want)
		}
		if !reflect.DeepEqual(events, want) {
			t.Errorf("trigger events after the pool was overwritten:\n got %v\nwant %v", events, want)
		}
		eng.IngestFrame(frameOf(t, sch.Tag, wide))
		eng.Pump()
		if got := eng.Stats().PoolMisses; got != misses {
			t.Errorf("second wave missed the pool (%d -> %d): locally stored records not recycled", misses, got)
		}
	})
}

func TestEngineSubmitAfterClose(t *testing.T) {
	sink := &fakeSink{}
	eng := New(sink, Config{Shards: 1, Synchronous: true})
	eng.Close()
	if eng.Submit("a", schema.Record{1}) {
		t.Fatalf("submit accepted after Close")
	}
	if st := eng.Stats(); st.DroppedRing != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEngineWorkersDrain exercises the asynchronous mode end to end
// under the race detector: shard workers, notify wakeups, and the
// final-drain-on-Close path.
func TestEngineWorkersDrain(t *testing.T) {
	sink := &fakeSink{storedAt: "remote"}
	eng := New(sink, Config{Shards: 2, RingSize: 1 << 12, SelfAddr: "self"})
	const total = 5000
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < total/4; i++ {
				rec := schema.Record{uint64(p*total + i), uint64(i % 7), uint64(i % 13)}
				for !eng.Submit("a", rec) {
					time.Sleep(10 * time.Microsecond)
				}
			}
		}(p)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := eng.Stats()
		if st.Acked+st.Failed == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("records did not settle: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	eng.Close()
	st := eng.Stats()
	if st.Acked != total || st.Pending != 0 || st.Queued != 0 {
		t.Fatalf("final stats = %+v", st)
	}
}

// TestEngineBlockMode checks the blocking admission path: with a ring
// far smaller than the offered load, every record must eventually be
// admitted and none dropped.
func TestEngineBlockMode(t *testing.T) {
	sink := &fakeSink{storedAt: "remote"}
	eng := New(sink, Config{Shards: 1, RingSize: 8, Block: true, SelfAddr: "self"})
	const total = 2000
	for i := 0; i < total; i++ {
		if !eng.Submit("a", schema.Record{uint64(i), 1, 2}) {
			t.Fatalf("blocking submit %d dropped", i)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for eng.Stats().Acked != total {
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v", eng.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	eng.Close()
	st := eng.Stats()
	if st.DroppedRing != 0 || st.DroppedPending != 0 {
		t.Fatalf("block mode dropped records: %+v", st)
	}
}

// TestChunkFootprint: once every record has settled, the engine keeps no
// chunk but its shards' open ones. A burst of 16 k records goes through
// running workers, not Pump, and settles; two collections later every
// other chunk it filled is freed. The pool drops what it held, and
// neither a worker's reused batch buffer nor a ring slot still names a
// settled record's chunk. Automatic collection is off, so only the
// forced collections free anything.
func TestChunkFootprint(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const records, frame = 16384, 512
	recs := make([][]uint64, frame)
	for i := range recs {
		recs[i] = []uint64{uint64(i), 1, 2, 3, 4}
	}
	f := frameOf(t, "a", recs)
	eng := New(&fakeSink{storedAt: "remote"}, Config{Shards: 2, RingSize: 1 << 12, Block: true, SelfAddr: "self"})
	defer eng.Close()
	var made, freed atomic.Int64
	newChunk := eng.chunks.New
	eng.chunks.New = func() any {
		c := newChunk()
		made.Add(1)
		runtime.SetFinalizer(c.(*chunk), func(*chunk) { freed.Add(1) })
		return c
	}
	for i := 0; i < records/frame; i++ {
		eng.IngestFrame(f)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st := eng.Stats(); st.Acked != records || st.Pending != 0 || st.Queued != 0; st = eng.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("the burst did not settle: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	runtime.GC()
	open := int64(0)
	for _, s := range eng.shards {
		s.pushMu.Lock()
		if s.open != nil {
			open++
		}
		s.pushMu.Unlock()
	}
	if made.Load() <= open {
		t.Fatalf("fixture: the burst filled %d chunks, no more than the %d open ones", made.Load(), open)
	}
	// The finalizers of what the collections found unreachable run on
	// their own goroutine; wait for them, collecting nothing more.
	for deadline = time.Now().Add(5 * time.Second); made.Load()-freed.Load() != open && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if kept := made.Load() - freed.Load(); kept != open {
		t.Fatalf("two collections after the burst settled %d of its %d chunks are still reachable; want only the %d open ones", kept, made.Load(), open)
	}
}
