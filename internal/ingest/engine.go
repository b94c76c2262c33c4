package ingest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/wire"
)

// BatchInserter is the slice of mind.Node the engine drives; the
// indirection keeps the engine testable against a fake sink.
type BatchInserter interface {
	InsertBatch(tag string, recs []schema.Record, cb func([]mind.InsertResult)) error
}

// Config tunes an ingest engine.
type Config struct {
	// Shards is the number of worker/ring pairs; 0 means GOMAXPROCS.
	Shards int
	// RingSize is the per-shard ring capacity (rounded up to a power of
	// two); 0 means 8192.
	RingSize int
	// Block selects the admission mode on overload: block the producer
	// until space frees (true) or drop the record and count it (false).
	// Blocking requires running workers (not Synchronous mode).
	Block bool
	// SelfAddr is the owning node's transport address. When set, a
	// record's storage is recycled once its insert settles: the node
	// keeps no reference to a settled record (its store copies the row,
	// the wire copies the bytes, a local trigger subscriber gets a copy).
	// Empty disables recycling.
	SelfAddr string
	// NodePending optionally reports the node's own in-flight tracked
	// operations (mind.Node.PendingInserts); admission also refuses at
	// mind.MaxPendingInserts of them, the ceiling the node sheds client
	// inserts at, so a node falling behind on acks sheds load at the
	// edge instead of growing its tracking tables without bound.
	NodePending func() int
	// OnResult, when set, observes every record's final InsertResult.
	// The record slice is only valid during the call when recycling is
	// enabled — clone it to retain it.
	OnResult func(tag string, rec schema.Record, res mind.InsertResult)
	// Synchronous disables the worker goroutines: records queue in the
	// rings and the caller drains them with Pump. This is the
	// deterministic mode the chaos/oracle tests run under simnet, where
	// free-running goroutines would break schedule reproducibility.
	Synchronous bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Shards <= 0 {
		out.Shards = runtime.GOMAXPROCS(0)
	}
	if out.RingSize <= 0 {
		out.RingSize = 8192
	}
	return out
}

// maxBatch caps the records one InsertBatch call carries. It is a
// variable only so TestRetransmitRecycleRace can lower it (see there).
var maxBatch = 256

// maxPending caps a shard's in-flight (submitted but un-acked) records
// before admission control engages.
const maxPending = 8192

// chunkWords is the size of a record chunk: 16 KB, 409 Index-2 records.
const chunkWords = 2048

// chunk is where a shard's admitted records live, copied back to back
// into one pointer-free array. live counts its records not yet settled,
// plus one while it is its shard's open chunk; the release that takes it
// to zero hands the chunk back to the engine's pool whole. Records are
// never freed one at a time, so none is left alone to pin a span.
type chunk struct {
	vals []uint64
	live atomic.Int32
}

// spans counts a batch's records in the chunks they live in. A batch's
// records are consecutive in its shard's chunks and it ends before a
// third, so two spans hold it; a batch of Index-2 records (409 to a
// chunk, at most maxBatch to a batch) never ends there. Each span is
// the batch's n records in chunk c.
type spans [2]struct {
	c *chunk
	n int32
}

// fits reports whether a record in c can join the batch.
func (sp *spans) fits(c *chunk) bool { return sp[1].c == nil || sp[1].c == c }

// add counts one more record, in chunk c.
func (sp *spans) add(c *chunk) {
	i := 0
	if sp[0].c != nil && sp[0].c != c {
		i = 1
	}
	sp[i].c = c
	sp[i].n++
}

// release drops the batch's hold on its chunks.
func (sp spans) release(e *Engine) {
	for _, x := range sp {
		if x.c != nil {
			e.release(x.c, x.n)
		}
	}
}

// shard is one ring/worker pair. pushMu serializes producers (see ring)
// and guards the open chunk new records are copied into; batch is the
// ring's one consumer's (the worker's, or Pump's) reused batch buffer;
// pending counts submitted-but-unresolved records for admission control.
type shard struct {
	ring    *ring
	pushMu  sync.Mutex
	open    *chunk
	used    int // words of open handed out
	batch   []item
	pending atomic.Int64
	notify  chan struct{} // producer → worker wakeup, capacity 1
}

// Engine is the streaming ingest front-end for one node.
type Engine struct {
	ins    BatchInserter
	cfg    Config
	shards []*shard

	// Cumulative counters (Stats).
	received       atomic.Uint64
	droppedRing    atomic.Uint64
	droppedPending atomic.Uint64
	acked          atomic.Uint64
	failed         atomic.Uint64
	poolMisses     atomic.Uint64

	chunks sync.Pool // of *chunk; New counts a miss

	tagMu sync.RWMutex
	tags  map[string]string // interned index tags

	quit   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// New builds an engine over a batch inserter and, unless cfg.Synchronous
// is set, starts its shard workers.
func New(ins BatchInserter, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		ins:  ins,
		cfg:  cfg,
		tags: make(map[string]string),
		quit: make(chan struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		e.shards = append(e.shards, &shard{
			ring:   newRing(cfg.RingSize),
			batch:  make([]item, 0, maxBatch),
			notify: make(chan struct{}, 1),
		})
	}
	e.chunks.New = func() any {
		e.poolMisses.Add(1)
		return &chunk{vals: make([]uint64, chunkWords)}
	}
	if !cfg.Synchronous {
		for _, s := range e.shards {
			e.wg.Add(1)
			go e.worker(s)
		}
	}
	return e
}

// Close stops the workers after they drain their rings. Safe to call
// once; Submit after Close drops.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	// Hold every shard's pushMu across the quit signal: a producer that
	// saw closed==false completes its push before we acquire (the
	// workers' final drain then consumes it), and any later producer
	// re-checks closed under the lock and drops. Without this fence a
	// push could land after a worker's final drain — counted accepted but
	// never flushed, its chunk never released. Only Close multi-locks
	// (producers take exactly one pushMu), so there is no ordering
	// deadlock.
	for _, s := range e.shards {
		s.pushMu.Lock()
	}
	close(e.quit)
	for _, s := range e.shards {
		s.pushMu.Unlock()
	}
	e.wg.Wait()
}

// place copies rec into s's open chunk, opening another when it has no
// room, and returns the ring item that names it. Callers hold s.pushMu.
func (e *Engine) place(s *shard, tag string, rec schema.Record) item {
	c := s.open
	if c == nil || s.used+len(rec) > len(c.vals) {
		if c != nil {
			e.release(c, 1)
		}
		c = e.chunks.Get().(*chunk)
		if len(c.vals) < len(rec) {
			c.vals = make([]uint64, len(rec)) // a record wider than a chunk
		}
		c.live.Store(1)
		s.open, s.used = c, 0
	}
	off := s.used
	s.used += copy(c.vals[off:], rec)
	c.live.Add(1)
	return item{tag: tag, c: c, off: int32(off), n: int32(len(rec))}
}

// release drops n of c's holds: settled records, or its shard's when it
// stops being the open chunk. The last one returns c to the pool.
func (e *Engine) release(c *chunk, n int32) {
	if c.live.Add(-n) == 0 {
		e.chunks.Put(c)
	}
}

// internTag maps a tag's byte view to a shared string without
// allocating on the steady-state path (the map lookup keyed by
// string(b) does not escape).
func (e *Engine) internTag(b []byte) string {
	e.tagMu.RLock()
	s, ok := e.tags[string(b)]
	e.tagMu.RUnlock()
	if ok {
		return s
	}
	e.tagMu.Lock()
	s, ok = e.tags[string(b)]
	if !ok {
		s = string(b)
		e.tags[s] = s
	}
	e.tagMu.Unlock()
	return s
}

// shardFor picks the shard for one record: a multiplicative hash of the
// attributes, so one hot flow key cannot serialize every worker while
// records stay spread independently of arrival order.
func (e *Engine) shardFor(rec schema.Record) *shard {
	var h uint64 = 14695981039346656037
	for _, v := range rec {
		h ^= v
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return e.shards[h%uint64(len(e.shards))]
}

// IngestFrame admits one parsed flow frame: each record is copied into
// its shard's open chunk and pushed to the shard's ring. It returns how
// many records were accepted and how many admission control dropped (in
// Block mode dropped is 0 unless the engine is closed).
func (e *Engine) IngestFrame(f *wire.FlowFrame) (accepted, dropped int) {
	tag := e.internTag(f.Tag)
	var buf [wire.MaxFlowFrameArity]uint64
	rec := buf[:f.Arity]
	for i := 0; i < f.Count; i++ {
		if e.submit(tag, f.Record(i, rec)) {
			accepted++
		} else {
			dropped++
		}
	}
	return accepted, dropped
}

// Submit admits one record; the engine copies it, so the caller keeps
// the slice. It reports whether the record was accepted.
func (e *Engine) Submit(tag string, rec schema.Record) bool {
	return e.submit(e.internTag([]byte(tag)), rec)
}

func (e *Engine) submit(tag string, rec schema.Record) bool {
	e.received.Add(1)
	if e.closed.Load() {
		e.droppedRing.Add(1)
		return false
	}
	s := e.shardFor(rec)
	for {
		if int(s.pending.Load()) >= maxPending || e.nodePending() >= mind.MaxPendingInserts {
			if e.block(s) {
				continue
			}
			e.droppedPending.Add(1)
			return false
		}
		s.pushMu.Lock()
		if e.closed.Load() {
			// Re-check under pushMu: Close fences on this lock before the
			// workers' final drain, so a push that proceeds here is
			// guaranteed to be drained.
			s.pushMu.Unlock()
			e.droppedRing.Add(1)
			return false
		}
		// The only producer under pushMu: room now is room at the push.
		ok := s.ring.len() < s.ring.capacity()
		if ok {
			s.ring.push(e.place(s, tag, rec))
		}
		s.pushMu.Unlock()
		if ok {
			e.wake(s)
			return true
		}
		if !e.block(s) {
			e.droppedRing.Add(1)
			return false
		}
	}
}

// block implements the blocking admission mode: wait a beat for the
// shard worker to make progress. It reports whether the caller should
// retry (false = drop: non-blocking mode, or engine closed).
func (e *Engine) block(s *shard) bool {
	if !e.cfg.Block || e.cfg.Synchronous || e.closed.Load() {
		return false
	}
	e.wake(s)
	time.Sleep(50 * time.Microsecond)
	return true
}

// wake nudges a shard's worker without blocking the producer.
func (e *Engine) wake(s *shard) {
	if e.cfg.Synchronous {
		return
	}
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// worker drains one shard's ring into InsertBatch calls, batching
// consecutive same-tag records up to maxBatch.
func (e *Engine) worker(s *shard) {
	defer e.wg.Done()
	for {
		if e.drainSome(s) > 0 {
			continue
		}
		select {
		case <-s.notify:
		case <-e.quit:
			// Final drain: admitted records still complete after Close.
			for e.drainSome(s) > 0 {
			}
			return
		}
	}
}

// drainSome pops up to one batch from the ring into s.batch and flushes
// it; it returns how many records it consumed. A flushed batch is
// cleared, so the buffer names no chunk it no longer needs.
func (e *Engine) drainSome(s *shard) int {
	b := s.batch[:0]
	var tag string
	var sp spans
	consumed := 0
	for len(b) < maxBatch {
		it, ok := s.ring.pop()
		if !ok {
			break
		}
		consumed++
		if len(b) > 0 && (it.tag != tag || !sp.fits(it.c)) {
			// Tag or chunk boundary: flush what we have, start afresh.
			e.flush(s, tag, b, sp)
			clear(b)
			b, sp = b[:0], spans{}
		}
		tag = it.tag
		b = append(b, it)
		sp.add(it.c)
	}
	if len(b) > 0 {
		e.flush(s, tag, b, sp)
		clear(b)
	}
	s.batch = b[:0]
	return consumed
}

// flush ships one batch of records into the node, each a view of its
// chunk. Its callback settles them, carrying held, the batch's chunk
// counts, by value.
func (e *Engine) flush(s *shard, tag string, batch []item, held spans) {
	recs := make([]schema.Record, len(batch))
	for i, it := range batch {
		recs[i] = it.rec()
	}
	s.pending.Add(int64(len(recs)))
	err := e.ins.InsertBatch(tag, recs, func(results []mind.InsertResult) {
		e.settle(s, tag, recs, results, held)
	})
	if err != nil {
		// Rejected wholesale (unknown index, bad arity): settle directly.
		results := make([]mind.InsertResult, len(recs))
		for i := range results {
			results[i].Err = err
		}
		e.settle(s, tag, recs, results, held)
	}
}

// settle counts a batch's outcomes and reports each to OnResult. Then it
// releases the records' chunks and, last, their pending count, so a
// caller that sees nothing pending sees every settled chunk released.
func (e *Engine) settle(s *shard, tag string, recs []schema.Record, results []mind.InsertResult, held spans) {
	for i, res := range results {
		if res.OK {
			e.acked.Add(1)
		} else {
			e.failed.Add(1)
		}
		if e.cfg.OnResult != nil {
			e.cfg.OnResult(tag, recs[i], res)
		}
	}
	if e.cfg.SelfAddr != "" {
		held.release(e)
	}
	s.pending.Add(-int64(len(recs)))
}

// Pump drains every shard inline (Synchronous mode) and returns the
// number of records flushed into the node. Deterministic: shards drain
// in index order.
func (e *Engine) Pump() int {
	total := 0
	for _, s := range e.shards {
		for n := e.drainSome(s); n > 0; n = e.drainSome(s) {
			total += n
		}
	}
	return total
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	Received       uint64 // records offered (frames and direct submits)
	Accepted       uint64 // records admitted into the rings
	DroppedRing    uint64 // dropped: ring full (or engine closed)
	DroppedPending uint64 // dropped: in-flight bound reached
	Acked          uint64 // records acked end-to-end
	Failed         uint64 // records failed or timed out
	Pending        int64  // in-flight records (submitted, not settled)
	Queued         int    // records sitting in the rings
	PoolMisses     uint64 // record chunks allocated fresh: the pool had none
	Backpressured  bool   // admission is near its bounds
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	// Load the drop counters before Received: every drop increments
	// Received first, so this order guarantees the loaded Received covers
	// the loaded drops and the Accepted subtraction cannot underflow
	// against a concurrent submit.
	st := Stats{
		DroppedRing:    e.droppedRing.Load(),
		DroppedPending: e.droppedPending.Load(),
		Received:       e.received.Load(),
		Acked:          e.acked.Load(),
		Failed:         e.failed.Load(),
		PoolMisses:     e.poolMisses.Load(),
	}
	st.Accepted = st.Received - st.DroppedRing - st.DroppedPending
	for _, s := range e.shards {
		st.Pending += s.pending.Load()
		st.Queued += s.ring.len()
	}
	st.Backpressured = e.backpressured(st)
	return st
}

// Backpressured reports whether senders should throttle: any shard's
// in-flight count or ring occupancy past 3/4 of its bound, or the
// node-level pending gauge near its admission limit.
func (e *Engine) Backpressured() bool { return e.Stats().Backpressured }

func (e *Engine) backpressured(st Stats) bool {
	for _, s := range e.shards {
		if int(s.pending.Load()) >= maxPending*3/4 {
			return true
		}
		if s.ring.len() >= s.ring.capacity()*3/4 {
			return true
		}
	}
	return e.nodePending() >= mind.MaxPendingInserts*3/4
}

// nodePending reads the node's in-flight insert gauge, 0 without one.
func (e *Engine) nodePending() int {
	if e.cfg.NodePending == nil {
		return 0
	}
	return e.cfg.NodePending()
}
