package mind

import (
	"math/bits"
	"sort"
	"time"

	"mind/internal/bitstr"
	"mind/internal/transport"
)

// Reliable request layer: the transport contract is deliberately lossy
// ("MIND's protocol layers own reliability"), so every tracked insert
// and every query carries a request id, receivers ack end-to-end (the
// insert-ack run, and a covering QueryResp, ARE the acks — no extra message
// kinds), receivers dedup retransmitted work through bounded caches, and
// originators retransmit un-acked requests on a clock-driven exponential
// backoff schedule with deterministic jitter from the node's seeded RNG.
// Retransmissions re-resolve the first hop excluding the previously-used
// contact, so they route around a node that died mid-operation, and
// retry exhaustion feeds the overlay's suspicion machinery
// (Overlay.SuspectContact). This file holds the shared primitives — the
// dedup set, the one retrySchedule, suspectHops — and the insert group's
// check; queries and aggregates retransmit from the scatter-gather engine
// (scatter.go: resendScatter), histogram reports from rebalance.go.
// Everything runs off transport.Clock, so the schedule is identical under
// simnet's virtual clock and tcpnet's real clock — and bit-reproducible
// for a given seed under simnet.

// dedupCap bounds each dedup generation; a receiver remembers between
// dedupCap and 2·dedupCap of the most recent keys.
const dedupCap = 1 << 16

// genSet is a bounded two-generation table of uint64 keys: when the
// current generation fills, it becomes the previous generation and the
// old previous one, cleared, becomes the current. Lookups consult both,
// so a key is remembered for at least cap and at most 2·cap recent
// insertions with O(1) operations and bounded memory — the
// idempotent-receiver cache of the reliable request layer (dedupSet:
// record ids at owners and replica holders, flood op ids) and the client
// request cache (client_api.go). The retransmission horizon (MaxRetries
// backoff steps) is far shorter than the time it takes cap fresh keys to
// arrive, so a retransmitted request always finds its first attempt
// still cached.
//
// A generation is a flat open-addressed table (genTable), not a Go map:
// a lookup touches one slot, usually one cache line, and a set warmed
// by two rotations allocates nothing more — rotation reuses the
// previous generation's slices.
type genSet[V any] struct {
	cap       int
	cur, prev genTable[V]
}

// genTable is one generation: keys in linear-probed slots of a
// power-of-two table kept at most half full, the empty slot being 0, so
// key 0 lives in its own flag. vals parallels keys (zero-size for a
// bare set). The table starts small and doubles as it fills, up to the
// slots cap keys need at load ½; a cleared table keeps its slices.
type genTable[V any] struct {
	keys  []uint64
	vals  []V
	n     int // keys held, key 0 included
	shift uint
	zero  bool // key 0 held
	zeroV V
}

// dedupSet is a genSet of bare keys.
type dedupSet = genSet[struct{}]

// genMinSlots is a fresh table's size: small, since most sets (flood op
// ids, client requests) stay tiny.
const genMinSlots = 16

func newGenSet[V any](capacity int) *genSet[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &genSet[V]{cap: capacity}
}

func newDedupSet(capacity int) *dedupSet { return newGenSet[struct{}](capacity) }

// slot is key's home slot: the top bits of key times 2^64/φ
// (Fibonacci hashing), which spread an origin's sequence numbers
// (nextRecID) over the table.
func (t *genTable[V]) slot(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> t.shift)
}

// find returns key's slot and whether it is there; absent, the slot is
// where it would go. key is non-zero and the table non-empty.
func (t *genTable[V]) find(key uint64) (int, bool) {
	mask := len(t.keys) - 1
	for i := t.slot(key); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// get looks key up.
func (t *genTable[V]) get(key uint64) (V, bool) {
	if key == 0 {
		return t.zeroV, t.zero
	}
	if len(t.keys) > 0 {
		if i, ok := t.find(key); ok {
			return t.vals[i], true
		}
	}
	var zero V
	return zero, false
}

// put records key with value v, growing the table first if one more
// key would take it past half full; limit is the largest size it may
// reach, which holds the set's cap keys at load ½.
func (t *genTable[V]) put(key uint64, v V, limit int) {
	if key == 0 {
		if !t.zero {
			t.n++
		}
		t.zero, t.zeroV = true, v
		return
	}
	if 2*(t.n+1) > len(t.keys) && len(t.keys) < limit {
		t.grow(min(max(2*len(t.keys), genMinSlots), limit))
	}
	i, ok := t.find(key)
	if !ok {
		t.keys[i] = key
		t.n++
	}
	t.vals[i] = v
}

// grow rehashes the table into size slots.
func (t *genTable[V]) grow(size int) {
	keys, vals := t.keys, t.vals
	t.keys, t.vals = make([]uint64, size), make([]V, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for j, k := range keys {
		if k != 0 {
			i, _ := t.find(k)
			t.keys[i], t.vals[i] = k, vals[j]
		}
	}
}

// reset empties the table, keeping its slices.
func (t *genTable[V]) reset() {
	clear(t.keys)
	clear(t.vals)
	var zero V
	t.n, t.zero, t.zeroV = 0, false, zero
}

// Get looks key up in both generations.
func (s *genSet[V]) Get(key uint64) (V, bool) {
	if v, ok := s.cur.get(key); ok {
		return v, true
	}
	return s.prev.get(key)
}

// Put records key with value v, rotating the generations first when the
// current one is full.
func (s *genSet[V]) Put(key uint64, v V) {
	if s.cur.n >= s.cap {
		s.prev.reset()
		s.cur, s.prev = s.prev, s.cur
	}
	s.cur.put(key, v, s.limit())
}

// limit is the table size cap keys need at load ½.
func (s *genSet[V]) limit() int {
	return max(1<<bits.Len(uint(2*s.cap-1)), genMinSlots)
}

// Seen inserts key and reports whether it was already present.
func (s *genSet[V]) Seen(key uint64) bool {
	if _, ok := s.Get(key); ok {
		return true
	}
	var zero V
	s.Put(key, zero)
	return false
}

// Len returns the number of remembered keys.
func (s *genSet[V]) Len() int { return s.cur.n + s.prev.n }

// retryDelayLocked computes the backoff before retransmission attempt
// (1-based): RetryBase doubling per attempt, capped at RetryMax, plus up
// to 25% jitter drawn from the node's seeded RNG — deterministic under
// simnet, desynchronizing under tcpnet. Callers hold n.mu.
func (n *Node) retryDelayLocked(attempt int) time.Duration {
	d := n.cfg.RetryBase
	for i := 1; i < attempt && d < n.cfg.RetryMax; i++ {
		d *= 2
	}
	if n.cfg.RetryMax > 0 && d > n.cfg.RetryMax {
		d = n.cfg.RetryMax
	}
	return d + time.Duration(n.rng.Float64()*0.25*float64(d))
}

// retrySchedule is the one retransmission schedule: the attempt counter
// and the timer of the next check. Insert groups (insert.go), scatter-gather
// operations (scatter.go) and tracked histogram reports (rebalance.go) each
// hold one; a check looks its operation up, advances the schedule, builds
// what is still un-acked and sends it, and the three differ only in what
// exhaustion means to them. n.mu guards the value.
type retrySchedule struct {
	attempt int // retransmissions so far
	timer   transport.Timer
	check   func()
}

// armLocked schedules the first check. Callers hold n.mu.
func (s *retrySchedule) armLocked(n *Node, check func()) {
	s.check = check
	s.timer = n.clock.AfterFunc(n.retryDelayLocked(1), check)
}

// advanceLocked is a check that found un-acked work: it reports false
// once the MaxRetries budget is spent — the caller takes its exhaustion
// action and leaves the operation to its timeout — and otherwise moves to
// the next attempt and re-arms the timer. A check with nothing to resend
// returns before calling this, so it draws no jitter. Callers hold n.mu.
func (s *retrySchedule) advanceLocked(n *Node) bool {
	if s.attempt >= n.cfg.MaxRetries {
		return false
	}
	s.attempt++
	s.timer = n.clock.AfterFunc(n.retryDelayLocked(s.attempt+1), s.check)
	return true
}

// stop ends the schedule: its operation settled.
func (s *retrySchedule) stop() {
	if s.timer != nil {
		s.timer.Stop()
	}
}

// retransmitInsert re-routes one retransmitted record: store locally if
// ownership shifted to us (takeover) since the original attempt, else
// leave through a first hop excluding the suspect one.
func (n *Node) retransmitInsert(r *insertRec, exclude string, ob *outbox) {
	if n.ov.Owns(r.target) {
		n.routeInsert(r, ob)
		return
	}
	next, ok := n.nextHopAvoiding(r.target, exclude)
	if !ok {
		n.ringRecover(r)
		return
	}
	n.mu.Lock()
	if cur, still := n.inserts[r.reqID]; still {
		cur.lastHop = next
	}
	n.mu.Unlock()
	r.hops++
	n.postInsert(ob, next, r)
}

// resendInsertGroup is an insert group's retransmission check: the
// members still pending leave again through one outbox — one run per
// first hop and header, like the original — each through a first hop
// excluding the one its un-acked attempt used (that path is the prime
// suspect). Once the group's budget is spent the pending members' last
// hops go to the overlay's suspicion machinery and the members are left
// to InsertTimeout.
//
// The pending members are copied under n.mu, their records deep-copied
// into one slab: an op's record may alias the submitter's buffer (the
// ingest engine recycles it the instant the op settles, and a new
// producer then overwrites it), and a settle can race with the encode
// once n.mu is released. finishInsert removes the op under n.mu before
// its callback runs, so an op still tracked cannot have been recycled
// yet — the copy taken under the lock is stable.
func (n *Node) resendInsertGroup(g *insertGroup) {
	n.mu.Lock()
	var pending []insertOp
	var hops []string // each pending member's last first hop
	for i := range g.ops {
		if op := &g.ops[i]; n.inserts[op.reqID] == op {
			pending, hops = append(pending, *op), append(hops, op.lastHop)
		}
	}
	if len(pending) == 0 || !g.retry.advanceLocked(n) {
		// The budget is spent — or the last member settled as the timer
		// fired, and there is nobody to suspect either.
		n.mu.Unlock()
		n.suspectHops(hops)
		return
	}
	slabRecs(pending)
	attempt := g.retry.attempt
	n.mu.Unlock()

	n.retransmits.Add(uint64(len(pending)))
	ob := &outbox{n: n}
	self := n.ep.Addr()
	for i := range pending {
		r := pending[i].inflight(self, g.tag, attempt)
		n.retransmitInsert(&r, hops[i], ob)
	}
	ob.flush()
}

// slabRecs points every op's record at its own copy, all copies in one
// slab allocation.
func slabRecs(ops []insertOp) {
	size := 0
	for i := range ops {
		size += len(ops[i].rec)
	}
	slab := make([]uint64, 0, size)
	for i := range ops {
		k := len(slab)
		slab = append(slab, ops[i].rec...)
		ops[i].rec = slab[k:len(slab):len(slab)]
	}
}

// nextHopAvoiding resolves the next hop toward target, avoiding exclude —
// the first hop an un-acked attempt left through — while another exit
// exists: the excluded contact may be the only one, and a repeat of a
// possibly-fine path is better than a guaranteed dead end.
func (n *Node) nextHopAvoiding(target bitstr.Code, exclude string) (string, bool) {
	next, ok := n.ov.NextHopExcluding(target, exclude)
	if !ok && exclude != "" {
		next, ok = n.ov.NextHop(target)
	}
	return next, ok
}

// suspectHops reports the distinct non-empty hops to the overlay's
// suspicion machinery, sorted so the probe sends consume the simulator
// RNG in a reproducible order.
func (n *Node) suspectHops(hops []string) {
	sort.Strings(hops)
	for i, hop := range hops {
		if hop != "" && (i == 0 || hop != hops[i-1]) {
			n.ov.SuspectContact(hop)
		}
	}
}
