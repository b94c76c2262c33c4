package ingest

import (
	"runtime"
	"slices"
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
	// SelfAddr is the owning node's transport address. When set, every
	// record returns to the record pool once its insert settles: the node
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

// shard is one ring/worker pair. pushMu serializes producers (see ring);
// pending counts submitted-but-unresolved records for admission control.
type shard struct {
	ring    *ring
	pushMu  sync.Mutex
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

	// Record free list. A plain LIFO under a mutex rather than a
	// sync.Pool: Put on a sync.Pool boxes the slice header, which is one
	// heap allocation per recycled record — exactly the per-record cost
	// the pool exists to avoid. The list is bounded to the engine's
	// maximum live-record population so it cannot grow past what the
	// rings and in-flight window can hold. Once no record is queued or in
	// flight a list of more than idleKeep records is parked in a
	// sync.Pool (parkIfIdle): getRec takes it back when the list runs
	// dry, and garbage collections drop what the engine left there, so
	// an idle engine does not keep every record that was once in flight.
	freeMu  sync.Mutex
	free    []schema.Record
	freeCap int
	parked  sync.Pool // of *[]schema.Record, each at most idleKeep long

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
			notify: make(chan struct{}, 1),
		})
	}
	// Bound the free list by the maximum live-record population: every
	// ring slot plus every in-flight record, across all shards.
	e.freeCap = cfg.Shards * (e.shards[0].ring.capacity() + maxPending)
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
	// never flushed, its pooled buffer stranded. Only Close multi-locks
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

// getRec returns a record buffer with exactly arity attributes, pooled
// when possible.
func (e *Engine) getRec(arity int) schema.Record {
	var b schema.Record
	e.freeMu.Lock()
	if len(e.free) == 0 {
		if p, _ := e.parked.Get().(*[]schema.Record); p != nil {
			e.free = *p
		}
	}
	if n := len(e.free); n > 0 {
		b = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	}
	e.freeMu.Unlock()
	if cap(b) >= arity {
		return b[:arity]
	}
	e.poolMisses.Add(1)
	return make([]uint64, arity)
}

// putRec returns a record buffer to the free list (dropped when the
// list is at capacity, which only happens transiently around arity
// changes).
func (e *Engine) putRec(rec schema.Record) {
	e.freeMu.Lock()
	if len(e.free) < e.freeCap {
		e.free = append(e.free, rec)
	}
	e.freeMu.Unlock()
}

// idleKeep is the most free records an idle engine keeps to itself; a
// longer list is parked, in pieces of this many. A fixed constant: ≈ 70
// KB of Index-2 records, small next to a backfill's peak population
// (≈ 27 k records in flight) and above what a stream fed a frame at a
// time keeps, so such a stream never parks between its frames.
const idleKeep = 1024

// parkIfIdle parks the free list when no shard has a record queued or in
// flight and the list holds more than idleKeep records. It goes into the
// pool copied into pieces of idleKeep — each its own array, so that a
// collection can free one piece while another is in use — and the first
// piece comes straight back as the list the engine keeps: a sync.Pool
// holds the first object a processor puts in a slot that only that
// processor's Get reaches, where a piece could wait out its collections
// while other processors miss. The pool, not a plain cut of the list,
// because a backfill goes idle between windows: a list cut to idleKeep
// at each such gap made the next window miss for ≈ 20 k records, and
// ingest_bulk's misses per 1 000 records went from 64–78 to 133–239 in
// 4 of 11 runs. A miss happens only when the list and the pool are both
// empty, so together they hold no more records than the engine ever had
// in flight at once. Settling calls it after recycling a batch.
func (e *Engine) parkIfIdle() {
	for _, s := range e.shards {
		if s.pending.Load() != 0 || s.ring.len() != 0 {
			return
		}
	}
	e.freeMu.Lock()
	if free := e.free; len(free) > idleKeep {
		for len(free) > 0 {
			n := min(idleKeep, len(free))
			piece := slices.Clone(free[:n])
			free = free[n:]
			e.parked.Put(&piece)
		}
		e.free = nil
		if p, _ := e.parked.Get().(*[]schema.Record); p != nil {
			e.free = *p
		}
	}
	e.freeMu.Unlock()
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
// a pooled buffer and pushed to its shard's ring. It returns how many
// records were accepted and how many admission control dropped (in
// Block mode dropped is 0 unless the engine is closed).
func (e *Engine) IngestFrame(f *wire.FlowFrame) (accepted, dropped int) {
	tag := e.internTag(f.Tag)
	for i := 0; i < f.Count; i++ {
		rec := e.getRec(f.Arity)
		f.Record(i, rec)
		if e.submit(tag, rec) {
			accepted++
		} else {
			e.putRec(rec)
			dropped++
		}
	}
	return accepted, dropped
}

// Submit admits one record the caller owns (the engine retains it until
// its insert resolves; do not reuse the slice). It reports whether the
// record was accepted.
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
		ok := s.ring.push(item{tag: tag, rec: rec})
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
	batch := make([]schema.Record, 0, maxBatch)
	var tag string
	for {
		n := e.drainSome(s, &batch, &tag)
		if n > 0 {
			continue
		}
		select {
		case <-s.notify:
		case <-e.quit:
			// Final drain: admitted records still complete after Close.
			for e.drainSome(s, &batch, &tag) > 0 {
			}
			return
		}
	}
}

// drainSome pops up to one batch from the ring and flushes it; it
// returns how many records it consumed. batch and tag carry the reused
// buffer between calls.
func (e *Engine) drainSome(s *shard, batch *[]schema.Record, tag *string) int {
	b := (*batch)[:0]
	consumed := 0
	for len(b) < maxBatch {
		it, ok := s.ring.pop()
		if !ok {
			break
		}
		consumed++
		if len(b) > 0 && it.tag != *tag {
			// Tag boundary: flush what we have, start a fresh batch.
			e.flush(s, *tag, b)
			b = b[:0]
		}
		*tag = it.tag
		b = append(b, it.rec)
	}
	if len(b) > 0 {
		e.flush(s, *tag, b)
	}
	*batch = b[:0]
	return consumed
}

// flush ships one batch of records into the node. The records slice is
// snapshotted because the caller reuses its backing array; the ack
// callback settles counters and recycles the records.
func (e *Engine) flush(s *shard, tag string, batch []schema.Record) {
	recs := make([]schema.Record, len(batch))
	copy(recs, batch)
	s.pending.Add(int64(len(recs)))
	err := e.ins.InsertBatch(tag, recs, func(results []mind.InsertResult) {
		s.pending.Add(-int64(len(recs)))
		for i, res := range results {
			if res.OK {
				e.acked.Add(1)
			} else {
				e.failed.Add(1)
			}
			if e.cfg.OnResult != nil {
				e.cfg.OnResult(tag, recs[i], res)
			}
			if e.cfg.SelfAddr != "" {
				e.putRec(recs[i])
			}
		}
		e.parkIfIdle()
	})
	if err != nil {
		// Rejected wholesale (unknown index, bad arity): settle directly.
		s.pending.Add(-int64(len(recs)))
		e.failed.Add(uint64(len(recs)))
		for i, rec := range recs {
			if e.cfg.OnResult != nil {
				e.cfg.OnResult(tag, recs[i], mind.InsertResult{OK: false, Err: err})
			}
			if e.cfg.SelfAddr != "" {
				e.putRec(rec)
			}
		}
		e.parkIfIdle()
	}
}

// Pump drains every shard inline (Synchronous mode) and returns the
// number of records flushed into the node. Deterministic: shards drain
// in index order.
func (e *Engine) Pump() int {
	total := 0
	batch := make([]schema.Record, 0, maxBatch)
	var tag string
	for _, s := range e.shards {
		for {
			n := e.drainSome(s, &batch, &tag)
			if n == 0 {
				break
			}
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
	PoolMisses     uint64 // record-pool misses (fresh allocations)
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
