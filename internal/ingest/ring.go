// Package ingest is the streaming ingest front-end: it takes raw flow
// frames (from a socket, or replayed flowgen traffic), copies their
// records into pooled chunks, and feeds per-core sharded ingestion
// workers through bounded SPSC ring buffers into the node's coalesced
// InsertBatch path. Admission control is explicit — a full ring either
// drops the record (counted) or blocks the producer, configurable — and
// the engine exposes a backpressure signal the listener reflects to
// senders when the node falls behind.
package ingest

import (
	"sync/atomic"

	"mind/internal/schema"
)

// item is one admitted record waiting for a shard worker: words
// [off, off+n) of chunk c.
type item struct {
	tag    string // interned index tag; shared, never per-record allocated
	c      *chunk
	off, n int32
}

// rec is the item's record, a view of its chunk.
func (it item) rec() schema.Record { return it.c.vals[it.off : it.off+it.n : it.off+it.n] }

// ring is a bounded single-producer single-consumer queue of items. The
// producer owns tail, the consumer owns head; each side only ever
// stores its own counter and loads the other's, so the two atomics are
// the whole synchronization protocol. The engine serializes concurrent
// connection handlers on a per-shard mutex so each ring still sees one
// logical producer (the common case — one streaming connection — takes
// that mutex uncontended).
//
// Counters are monotonically increasing and indexed modulo the
// power-of-two capacity: head == tail means empty, tail-head == cap
// means full, so no slot is wasted and wraparound needs no special
// casing (uint64 overflow preserves the difference).
type ring struct {
	buf  []item
	mask uint64
	_    [48]byte // keep head and tail on separate cache lines
	head atomic.Uint64
	_    [56]byte
	tail atomic.Uint64
}

// newRing returns a ring with capacity rounded up to a power of two (at
// least 2).
func newRing(capacity int) *ring {
	size := 2
	for size < capacity {
		size <<= 1
	}
	return &ring{buf: make([]item, size), mask: uint64(size - 1)}
}

// push appends one item; it reports false when the ring is full.
// Producer-side only.
func (r *ring) push(it item) bool {
	t := r.tail.Load()
	if t-r.head.Load() >= uint64(len(r.buf)) {
		return false
	}
	r.buf[t&r.mask] = it
	r.tail.Store(t + 1)
	return true
}

// pop removes the oldest item; ok is false when the ring is empty.
// Consumer-side only.
func (r *ring) pop() (it item, ok bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return item{}, false
	}
	it = r.buf[h&r.mask]
	r.buf[h&r.mask] = item{} // drop the record reference for the GC
	r.head.Store(h + 1)
	return it, true
}

// len returns the number of queued items (racy but monotonic-consistent
// when called from either end).
func (r *ring) len() int {
	t := r.tail.Load()
	h := r.head.Load()
	if t < h {
		return 0
	}
	return int(t - h)
}

// capacity returns the ring's slot count.
func (r *ring) capacity() int { return len(r.buf) }
