package mind

import "time"

// Overload protection: per-source token-bucket admission control on the
// node's inbound work. The vocabulary mirrors the ingest engine's
// drop/block backpressure — shedding is an explicit, counted refusal
// with a response (client RPCs) or a counted silent drop (gossip, which
// is redundant by construction), never a silent stall. Everything here
// is driven by the node's transport.Clock, so admission decisions are
// deterministic under simnet.
//
// A ClientInsert is always shed at MaxPendingInserts in-flight inserts.
// Beside it two bucket families exist, both off by default (zero Config):
//
//   - client buckets, keyed by the client's address: ClientInsert /
//     ClientQuery / ClientCreateIndex / ClientDropIndex. A refused
//     request gets ClientAck{Shed:true} / ClientQueryResp{Shed:true}
//     and is NOT recorded in the client dedup cache, so a later retry
//     is re-admitted as a fresh request.
//   - gossip buckets, keyed by the sending peer: flood/control messages
//     (CreateIndex, DropIndex, HistInstall, RetireVersion,
//     RegionRecall). A refused flood is dropped before markOp, so the
//     same operation arriving later (or from another contact) still
//     propagates.
//
// Buckets live in the same two-generation bounded maps the dedup caches
// use: at dedupCap live buckets the generations rotate, and a source
// seen again is promoted back with its balance intact.

// tokenBucket is one source's admission balance.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// bucketMap is a bounded, two-generation map of token buckets.
type bucketMap struct {
	cur  map[uint64]*tokenBucket
	prev map[uint64]*tokenBucket
}

func newBucketMap() *bucketMap {
	return &bucketMap{cur: make(map[uint64]*tokenBucket)}
}

// take refills the source's bucket to now and consumes one token,
// reporting whether the source is within its rate. rate is tokens per
// second; burst is the bucket capacity (and a new source's opening
// balance).
func (bm *bucketMap) take(key uint64, now time.Time, rate, burst float64) bool {
	b := bm.cur[key]
	if b == nil {
		if b = bm.prev[key]; b != nil {
			bm.cur[key] = b // promote with balance intact
		}
	}
	if b == nil {
		if len(bm.cur) >= dedupCap {
			bm.prev = bm.cur
			bm.cur = make(map[uint64]*tokenBucket)
		}
		b = &tokenBucket{tokens: burst, last: now}
		bm.cur[key] = b
	}
	if el := now.Sub(b.last); el > 0 {
		b.tokens += el.Seconds() * rate
		if b.tokens > burst {
			b.tokens = burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// admitClient charges one client RPC against the per-client bucket and
// the node-wide pending-insert ceiling. countPending selects the
// MaxPendingInserts check (inserts add tracked in-flight state; queries
// and index control don't).
func (n *Node) admitClient(from string, countPending bool) bool {
	if countPending && int(n.pendingGauge.Load()) >= MaxPendingInserts {
		return false
	}
	if n.cfg.ClientRateLimit <= 0 {
		return true
	}
	burst := float64(n.cfg.ClientRateBurst)
	if burst < 1 {
		burst = max(n.cfg.ClientRateLimit, 1)
	}
	n.admMu.Lock()
	defer n.admMu.Unlock()
	return n.clientBuckets.take(hashAddr(from), n.clock.Now(), n.cfg.ClientRateLimit, burst)
}

// admitGossip charges one flood/control message against the sending
// peer's bucket, which holds one second of the rate and at least one
// token: a bucket capped below one token would refuse every message.
func (n *Node) admitGossip(from string) bool {
	if n.cfg.GossipRateLimit <= 0 {
		return true
	}
	n.admMu.Lock()
	defer n.admMu.Unlock()
	return n.gossipBuckets.take(hashAddr(from), n.clock.Now(), n.cfg.GossipRateLimit, max(n.cfg.GossipRateLimit, 1))
}
