package mind

import (
	"sort"
	"time"

	"mind/internal/bitstr"
	"mind/internal/transport"
	"mind/internal/wire"
)

// Reliable request layer: the transport contract is deliberately lossy
// ("MIND's protocol layers own reliability"), so every tracked insert
// and every query carries a request id, receivers ack end-to-end (the
// InsertAck, and a covering QueryResp, ARE the acks — no extra message
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

// dedupSet is a bounded two-generation set of uint64 keys: when the
// current generation fills, it becomes the previous generation and a
// fresh one starts. Lookups consult both, so membership is remembered
// for at least cap and at most 2·cap recent keys with O(1) operations
// and bounded memory — the idempotent-receiver cache of the reliable
// request layer. The retransmission horizon (MaxRetries backoff steps)
// is far shorter than the time it takes cap fresh keys to arrive, so a
// retransmitted request always finds its first attempt still cached.
type dedupSet struct {
	cap  int
	cur  map[uint64]bool
	prev map[uint64]bool
}

func newDedupSet(capacity int) *dedupSet {
	if capacity < 1 {
		capacity = 1
	}
	return &dedupSet{cap: capacity, cur: make(map[uint64]bool)}
}

// Seen inserts key and reports whether it was already present.
func (s *dedupSet) Seen(key uint64) bool {
	if s.cur[key] || s.prev[key] {
		return true
	}
	if len(s.cur) >= s.cap {
		s.prev = s.cur
		s.cur = make(map[uint64]bool)
	}
	s.cur[key] = true
	return false
}

// Len returns the number of remembered keys.
func (s *dedupSet) Len() int { return len(s.cur) + len(s.prev) }

// retriesEnabled reports whether the reliable request layer is active.
func (n *Node) retriesEnabled() bool {
	return n.cfg.MaxRetries > 0 && n.cfg.RetryBase > 0
}

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

// armLocked schedules the first check, or nothing with the reliable layer
// off. Callers hold n.mu.
func (s *retrySchedule) armLocked(n *Node, check func()) {
	if n.retriesEnabled() {
		s.check = check
		s.timer = n.clock.AfterFunc(n.retryDelayLocked(1), check)
	}
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

// resendCopyLocked returns the message a retransmission sends, with the
// record deep-copied: op.msg.Rec may alias the submitter's buffer (the
// ingest engine recycles it the instant the op settles, and a new producer
// then overwrites it), and a settle can race with the encode once n.mu is
// released. finishInsert removes the op under n.mu before its callback
// runs, so an op still tracked cannot have been recycled yet — the copy
// taken under the lock is stable. Every attempt starts from the originator
// again, so the copy counts its hops from zero whatever the first dispatch
// recorded. Callers hold n.mu.
func (op *insertOp) resendCopyLocked() wire.Insert {
	msg := op.msg
	msg.Rec = append([]uint64(nil), op.msg.Rec...)
	msg.Hops = 0
	return msg
}

// retransmitInsert re-routes one retransmitted insert: store locally if
// ownership shifted to us (takeover) since the original attempt, else
// leave through a first hop excluding the suspect one.
func (n *Node) retransmitInsert(msg *wire.Insert, exclude string, ob *outbox) {
	if n.ov.Owns(msg.Target) {
		n.handleInsert(n.ep.Addr(), msg, ob)
		return
	}
	next, ok := n.nextHopAvoiding(msg.Target, exclude)
	if !ok {
		n.ov.RingRecover(msg.Target, wire.Encode(msg))
		return
	}
	n.mu.Lock()
	if cur, still := n.inserts[msg.ReqID]; still {
		cur.lastHop = next
	}
	n.mu.Unlock()
	msg.Hops++
	n.post(ob, outData, next, msg)
}

// resendInsertGroup is an insert group's retransmission check: the
// members still pending leave again, one envelope per first hop like the
// original, each through a first hop excluding the one its un-acked
// attempt used (that path is the prime suspect). Once the group's budget
// is spent the pending members' last hops go to the overlay's suspicion
// machinery and the members are left to InsertTimeout.
func (n *Node) resendInsertGroup(g *insertGroup) {
	n.mu.Lock()
	var msgs []wire.Insert
	var hops []string // each pending member's last first hop
	for i := range g.ops {
		if op := &g.ops[i]; n.inserts[op.msg.ReqID] == op {
			msgs, hops = append(msgs, op.resendCopyLocked()), append(hops, op.lastHop)
		}
	}
	if len(msgs) == 0 || !g.retry.advanceLocked(n) {
		// The budget is spent — or the last member settled as the timer
		// fired, and there is nobody to suspect either.
		n.mu.Unlock()
		n.suspectHops(hops)
		return
	}
	attempt := uint8(g.retry.attempt)
	n.mu.Unlock()

	n.retransmits.Add(uint64(len(msgs)))
	ob := &outbox{n: n}
	for i := range msgs {
		msgs[i].Attempt = attempt
		n.retransmitInsert(&msgs[i], hops[i], ob)
	}
	ob.flush()
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
