package mind

import (
	"sort"
	"time"

	"mind/internal/metrics"
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
// (Overlay.SuspectContact). This file holds the shared primitives and the
// insert schedule; queries and aggregates retransmit from the
// scatter-gather engine (scatter.go: resendScatter). Everything runs off transport.Clock, so the
// schedule is identical under simnet's virtual clock and tcpnet's real
// clock — and bit-reproducible for a given seed under simnet.

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

// armInsertRetryLocked schedules the first retransmission check for a
// tracked insert. Callers hold n.mu.
func (n *Node) armInsertRetryLocked(reqID uint64, op *insertOp) {
	if !n.retriesEnabled() {
		return
	}
	op.retry = n.clock.AfterFunc(n.retryDelayLocked(1), func() { n.resendInsert(reqID) })
}

// resendInsert fires when a tracked insert's retry timer elapses without
// an ack: retransmit through a first hop excluding the one used last
// (the un-acked attempt's path is the prime suspect), or — once
// MaxRetries attempts are exhausted — report the last hop to the
// overlay's suspicion machinery and leave the op to its InsertTimeout.
func (n *Node) resendInsert(reqID uint64) {
	n.mu.Lock()
	op, ok := n.inserts[reqID]
	if !ok || op.msg == nil {
		n.mu.Unlock()
		return
	}
	if op.attempt >= n.cfg.MaxRetries {
		suspect := op.lastHop
		n.mu.Unlock()
		if suspect != "" {
			n.ov.SuspectContact(suspect)
		}
		return
	}
	n.retransmits.Add(1)
	msg := op.resendCopyLocked(op.attempt + 1)
	exclude := op.lastHop
	op.retry = n.clock.AfterFunc(n.retryDelayLocked(op.attempt+1), func() { n.resendInsert(reqID) })
	n.mu.Unlock()

	n.retransmitInsert(reqID, &msg, exclude, nil)
}

// resendCopyLocked moves op to the given retransmission attempt and
// returns the message to send, with the record deep-copied: op.msg.Rec
// may alias the submitter's buffer (the ingest engine recycles it the
// instant the op settles, and a new producer then overwrites it), and a
// settle can race with the encode once n.mu is released. finishInsert
// removes the op under n.mu before its callback runs, so an op still
// tracked cannot have been recycled yet — the copy taken under the lock
// is stable. Callers hold n.mu.
func (op *insertOp) resendCopyLocked(attempt int) wire.Insert {
	op.attempt = attempt
	msg := *op.msg
	msg.Rec = append([]uint64(nil), op.msg.Rec...)
	msg.Attempt = uint8(attempt)
	return msg
}

// retransmitInsert re-routes one retransmitted insert: store locally if
// ownership shifted to us (takeover) since the original attempt, else
// leave through a first hop excluding the suspect one (via ob when it is
// part of a group resend).
func (n *Node) retransmitInsert(reqID uint64, msg *wire.Insert, exclude string, ob *outbox) {
	if n.ov.Owns(msg.Target) {
		n.handleInsert(n.ep.Addr(), msg, ob)
		return
	}
	next, ok := n.ov.NextHopExcluding(msg.Target, exclude)
	if !ok {
		// The excluded contact may be the only exit; better a repeat of a
		// possibly-fine path than a guaranteed dead end.
		next, ok = n.ov.NextHop(msg.Target)
	}
	if !ok {
		n.ov.RingRecover(msg.Target, wire.Encode(msg))
		return
	}
	n.mu.Lock()
	if cur, still := n.inserts[reqID]; still {
		cur.lastHop = next
	}
	n.mu.Unlock()
	msg.Hops++
	n.post(ob, outData, next, msg)
}

// resendInsertGroup is the batchGroup retransmission schedule: one
// clock-driven backoff for the whole InsertBatch, retransmitting only
// the members still pending, one envelope per first hop like the
// original. The schedule ends when every member has settled or the
// shared attempt budget is exhausted (which feeds the remaining members'
// last hops to the overlay's suspicion machinery, exactly like the
// per-record path).
func (n *Node) resendInsertGroup(g *batchGroup) {
	type resend struct {
		reqID   uint64
		msg     wire.Insert
		exclude string
	}
	n.mu.Lock()
	if g.attempt >= n.cfg.MaxRetries {
		var suspects []string
		for _, id := range g.ids {
			if op, ok := n.inserts[id]; ok {
				suspects = append(suspects, op.lastHop)
			}
		}
		n.mu.Unlock()
		n.suspectHops(suspects)
		return
	}
	g.attempt++
	attempt := g.attempt
	var work []resend
	for _, id := range g.ids {
		op, ok := n.inserts[id]
		if !ok || op.msg == nil {
			continue
		}
		work = append(work, resend{reqID: id, msg: op.resendCopyLocked(attempt), exclude: op.lastHop})
	}
	if len(work) == 0 {
		// Every member settled: the schedule dies here.
		n.mu.Unlock()
		return
	}
	n.retransmits.Add(uint64(len(work)))
	n.clock.AfterFunc(n.retryDelayLocked(attempt+1), func() { n.resendInsertGroup(g) })
	n.mu.Unlock()

	ob := &outbox{n: n}
	for i := range work {
		w := &work[i]
		n.retransmitInsert(w.reqID, &w.msg, w.exclude, ob)
	}
	ob.flush()
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

// ReliabilityStats snapshots the reliable-request-layer counters.
func (n *Node) ReliabilityStats() metrics.Reliability {
	return metrics.Reliability{
		Requests:    n.reqTracked.Load(),
		Retransmits: n.retransmits.Load(),
		Acks:        n.acksReceived.Load(),
		DedupHits:   n.dedupHits.Load(),
	}
}
