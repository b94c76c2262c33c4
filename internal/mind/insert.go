package mind

import (
	"fmt"
	"sort"

	"mind/internal/bitstr"
	"mind/internal/transport"
	"mind/internal/wire"

	"mind/internal/schema"
)

// InsertResult reports the outcome of one insertion to its originator.
type InsertResult struct {
	OK       bool
	Hops     int    // overlay hops the record travelled
	StoredAt string // owner node address
	// Attempts counts originator retransmissions of this insert. A
	// retransmitted insert may race its first copy through ring recovery
	// onto distinct owners — the only path by which an acked record can
	// end up stored twice — so callers needing exact aggregate oracles
	// (the chaos differential) treat Attempts > 0 as a duplicate risk.
	Attempts int
	Err      error
}

// insertOp is one tracked insert: a member of the insertGroup it settles
// into. The message is kept for retransmission (reliable.go) until the ack
// arrives or the group times out.
type insertOp struct {
	grp     *insertGroup
	slot    int // position in the group, and in its results
	msg     wire.Insert
	lastHop string // first hop the latest attempt left through
}

// insertGroup is what every tracked insert is a member of: the ops of
// one sendInserts call — one for Insert and for each repair re-insertion
// (rehome.go), N for InsertBatch — sharing one InsertTimeout timer, one
// retransmission schedule and one callback. Per-record timers are the
// dominant originator-side cost at streaming-ingest rates (two timer
// allocations and heap operations per record); the group keeps per-record
// ack tracking, retransmission targeting and timeout semantics and owns
// the two timers, which end with its last member. n.mu guards it.
type insertGroup struct {
	ops     []insertOp           // members, in input order
	pending int                  // members still in n.inserts
	timeout transport.Timer      // InsertTimeout bound of every member
	retry   retrySchedule        // shared by the pending members
	done    func([]InsertResult) // nil: nobody waits for the outcome
	results []InsertResult       // one per member, filled in as each settles
}

// Insert hashes the record to its data-space code and greedy-routes it
// to the owner node (§3.5). The callback fires on ack or timeout; it may
// be nil for fire-and-forget insertion.
func (n *Node) Insert(tag string, rec schema.Record, cb func(InsertResult)) error {
	var done func([]InsertResult)
	if cb != nil {
		done = func(rs []InsertResult) { cb(rs[0]) }
	}
	return n.InsertBatch(tag, []schema.Record{rec}, done)
}

var errTimeout = fmt.Errorf("mind: operation timed out")

// InsertBatch inserts many records of one index in a single pass: every
// record is hashed and routed up front, records this node owns store
// directly, and everything the pass emits — forwarded Inserts, and the
// Replicates of locally stored records — leaves through one outbox, so
// each neighbor receives one wire.Batch instead of one message per record
// (§3.5's per-record stream is the hot path this collapses). Acks still
// flow back per record; cb (nil for fire-and-forget) receives one
// InsertResult per input record, in input order, once all have been
// acked or timed out.
func (n *Node) InsertBatch(tag string, recs []schema.Record, cb func([]InsertResult)) error {
	if len(recs) == 0 {
		if cb != nil {
			cb(nil)
		}
		return nil
	}
	ix, ok := n.getIndex(tag)
	if !ok {
		return fmt.Errorf("mind: unknown index %q", tag)
	}
	for _, rec := range recs {
		if err := ix.sch.CheckRecord(rec); err != nil {
			return err
		}
	}
	// Hash with no lock held — ~250 PointCodes must not block ack and query
	// bookkeeping. Ops and their messages are one slab allocation.
	depth := clampDepth(n.ov.Code().Len() + n.cfg.InsertDepthSlack)
	ops := make([]insertOp, len(recs))
	var pbuf [8]uint64
	scratch := pbuf[:0]
	for i, rec := range recs {
		v := ix.version(rec, n.cfg.VersionSeconds)
		tree, epoch := ix.treeAndEpoch(v)
		scratch = rec.PointInto(ix.sch, scratch)
		ops[i].msg = wire.Insert{
			OriginAddr: n.ep.Addr(),
			Index:      tag,
			Version:    v,
			RecID:      n.nextRecID(),
			Rec:        rec,
			Target:     tree.PointCode(scratch, depth),
			TreeEpoch:  epoch,
		}
	}
	n.sendInserts(ops, cb)
	return nil
}

// sendInserts is the one way an insert leaves its originator: the hashed
// ops of one call are routed, registered as one insertGroup, dispatched
// through one outbox and put on one retransmission schedule; done (nil for
// fire-and-forget) receives every member's outcome once the last settles.
func (n *Node) sendInserts(ops []insertOp, done func([]InsertResult)) {
	// Track the ops whenever the reliable layer is on, even fire-and-forget
	// inserts: retransmission needs the pending-ack state, and InsertTimeout
	// bounds how long an entry can linger. An untracked insert carries
	// ReqID 0, which solicits no ack.
	tracked := done != nil || n.retriesEnabled()
	// Route with no lock held. Nothing is shared yet, so the messages may
	// still be written; an op's lastHop doubles as its routing decision
	// ("" = stored here or ring-recovered).
	for i := range ops {
		if op := &ops[i]; !n.ov.Owns(op.msg.Target) {
			op.msg.Hops = 1 // leaving the originator
			op.lastHop, _ = n.ov.NextHop(op.msg.Target)
		}
	}
	var grp *insertGroup
	if tracked {
		grp = &insertGroup{ops: ops, pending: len(ops), done: done}
		if done != nil {
			grp.results = make([]InsertResult, len(ops))
		}
		n.reqTracked.Add(uint64(len(ops)))
		n.pendingGauge.Add(int64(len(ops)))
		n.mu.Lock()
		for i := range ops {
			op := &ops[i]
			op.grp, op.slot, op.msg.ReqID = grp, i, n.nextReq()
			n.inserts[op.msg.ReqID] = op
		}
		grp.timeout = n.clock.AfterFunc(n.cfg.InsertTimeout, func() {
			for i := range grp.ops {
				n.finishInsert(grp.ops[i].msg.ReqID, InsertResult{OK: false, Err: errTimeout})
			}
		})
		n.mu.Unlock()
	}

	ob := &outbox{n: n}
	for i := range ops {
		m := &ops[i].msg
		switch next := ops[i].lastHop; {
		case m.Hops == 0:
			n.handleInsert(n.ep.Addr(), m, ob)
		case next == "":
			n.ov.RingRecover(m.Target, wire.Encode(m))
		default:
			n.forwarded.Add(1)
			n.countTuples(next, 1)
			n.post(ob, outData, next, m)
		}
	}
	ob.flush()
	if tracked {
		// The schedule is armed only now: the loop above reads lastHop with
		// no lock, and a check firing on a short RetryBase writes it. The
		// backoff is drawn even when every member has already settled (local
		// stores), so a node's jitter sequence depends on how many groups it
		// sent, not on where their records landed.
		n.mu.Lock()
		grp.retry.armLocked(n, func() { n.resendInsertGroup(grp) })
		if grp.pending == 0 {
			grp.retry.stop()
		}
		n.mu.Unlock()
	}
}

func clampDepth(d int) int {
	if d > bitstr.MaxLen {
		return bitstr.MaxLen
	}
	if d < 1 {
		return 1
	}
	return d
}

// takeInsertLocked settles a tracked insert: the op leaves the table with
// its outcome recorded in its group, and a last pending member stops the
// group's timers. It returns the group when its callback is now due — the
// caller fires it once n.mu is released — and nil otherwise, also for an
// op that already settled. Callers hold n.mu.
func (n *Node) takeInsertLocked(reqID uint64, res InsertResult) *insertGroup {
	op, ok := n.inserts[reqID]
	if !ok {
		return nil
	}
	delete(n.inserts, reqID)
	n.pendingGauge.Add(-1)
	g := op.grp
	if g.done != nil {
		// Every pending member was part of every group retransmission.
		res.Attempts = g.retry.attempt
		g.results[op.slot] = res
	}
	if g.pending--; g.pending == 0 {
		g.timeout.Stop()
		g.retry.stop()
		if g.done != nil {
			return g
		}
	}
	return nil
}

func (n *Node) finishInsert(reqID uint64, res InsertResult) {
	n.mu.Lock()
	g := n.takeInsertLocked(reqID, res)
	n.mu.Unlock()
	if g != nil {
		g.done(g.results)
	}
}

// handleInsert processes a routed insertion at any hop. Version-skew
// detection happens only here at the ownership point, never on pure
// forwarding hops: routing needs no tree (Target travels with the
// message), so an intermediate node's stale tree cannot misroute.
func (n *Node) handleInsert(from string, m *wire.Insert, ob *outbox) {
	if !n.ov.Joined() {
		return
	}
	target := m.Target
	if n.ov.Owns(target) {
		myCode := n.ov.Code()
		ix, ok := n.getIndex(m.Index)
		if !ok {
			return
		}
		// The one place a wire record enters the primary store (and the
		// re-homing point computation): originators arity-check their
		// own records, a peer's bytes are checked here. The store keeps
		// fixed-stride rows, so a short record would panic and a long
		// one be truncated.
		if ix.sch.CheckRecord(m.Rec) != nil {
			n.droppedRecords.Add(1)
			return
		}
		if local := ix.epochOf(m.Version); m.TreeEpoch != local {
			n.skewInserts.Add(1)
			if m.TreeEpoch > local {
				// The originator hashed with a newer tree than ours —
				// we missed an install. Its Target is authoritative, and
				// storing needs no tree, so accept the record whenever the
				// code discriminates at our depth; catch up in parallel.
				n.treePull(m.OriginAddr, m.Index, m.Version)
				if target.Len() >= myCode.Len() {
					n.storeAsOwner(m, ob)
				}
				// Too-shallow target: deepening would need the newer tree
				// we don't have yet. Drop — the originator's
				// retransmission redelivers after the pull lands.
				return
			}
			// The originator is behind: its Target was computed with a
			// superseded tree, so the record may belong elsewhere under
			// the current cuts. Push our tree back (rate-limited),
			// recompute the placement locally and store or re-route.
			n.treePushTo(m.OriginAddr, ix, m.Version)
			if local&retiredEpochBit != 0 {
				return // version retired here: the pushed marker stops the originator
			}
			n.rehomeInsert(ix, m, myCode, ob)
			return
		}
		if target.Len() < myCode.Len() {
			// Target code too shallow to discriminate among the nodes in
			// its region: recompute it deeper from the record itself
			// (§3.5: the computed code may not exactly match a node's
			// code). Point codes are prefix-stable, so the extension
			// preserves routing progress.
			n.rehomeInsert(ix, m, myCode, ob)
			return
		}
		n.storeAsOwner(m, ob)
		return
	}
	fwd := *m
	n.forwardInsert(&fwd, ob)
}

// rehomeInsert recomputes m's target from the record itself, under this
// node's current tree and at its depth, then stores or re-routes it.
func (n *Node) rehomeInsert(ix *index, m *wire.Insert, myCode bitstr.Code, ob *outbox) {
	tree, epoch := ix.treeAndEpoch(m.Version)
	var pbuf [8]uint64
	p := schema.Record(m.Rec).PointInto(ix.sch, pbuf[:0])
	ext := *m
	ext.Target = tree.PointCode(p, clampDepth(myCode.Len()+n.cfg.InsertDepthSlack))
	ext.TreeEpoch = epoch
	if n.ov.Owns(ext.Target) {
		n.storeAsOwner(&ext, ob)
	} else {
		n.forwardInsert(&ext, ob)
	}
}

// forwardInsert sends the caller's copy of a routed insert one hop on.
func (n *Node) forwardInsert(m *wire.Insert, ob *outbox) {
	m.Hops++
	if next, ok := n.ov.NextHop(m.Target); ok {
		n.forwarded.Add(1)
		n.countTuples(next, 1)
		if m.OriginAddr == n.ep.Addr() {
			// Record the first hop so a retransmission can exclude it.
			n.mu.Lock()
			if op, ok := n.inserts[m.ReqID]; ok {
				op.lastHop = next
			}
			n.mu.Unlock()
		}
		n.post(ob, outData, next, m)
		return
	}
	// Dead end: recover via expanding-ring broadcast (§3.8).
	n.ov.RingRecover(m.Target, wire.Encode(m))
}

// storeAsOwner stores the record, replicates it, and acks the origin —
// through ob when the caller is envelope-scoped (batch.go), immediately
// when ob is nil. It runs without any node-wide lock: the per-index
// dedup+insert is atomic inside storeRecord, trigger matching locks the
// index, and the sends happen lock-free.
func (n *Node) storeAsOwner(m *wire.Insert, ob *outbox) {
	ix, ok := n.getIndex(m.Index)
	if !ok {
		return
	}
	isNew := ix.storeRecord(m.Version, m.RecID, m.Rec)
	var fired []*trigger
	if isNew {
		n.stored.Add(1)
		fired = ix.fireTriggers(n.clock.Now(), m.RecID, m.Rec)
	} else {
		// Retransmission (or ring double-delivery) of a record already
		// stored: idempotent, but the origin still needs the ack below —
		// the lost message may have been the previous ack.
		n.dedupHits.Add(1)
	}
	myInfo := n.ov.Info()
	replicas := n.replicasFor(ob)

	for _, tr := range fired {
		fire := &wire.TriggerFire{
			TriggerID: tr.id,
			Index:     m.Index,
			From:      myInfo,
			RecID:     m.RecID,
			Rec:       m.Rec,
		}
		if tr.subscriber == n.ep.Addr() {
			n.handleTriggerFire(fire)
		} else {
			n.send(tr.subscriber, fire)
		}
	}

	if isNew && len(replicas) > 0 {
		rep := &wire.Replicate{
			Index:     m.Index,
			Version:   m.Version,
			RecID:     m.RecID,
			Rec:       m.Rec,
			OwnerCode: myInfo.Code,
		}
		for _, addr := range replicas {
			n.post(ob, outData, addr, rep)
		}
	}
	if m.ReqID != 0 {
		if m.OriginAddr == n.ep.Addr() {
			n.finishInsert(m.ReqID, InsertResult{OK: true, Hops: int(m.Hops), StoredAt: myInfo.Addr})
		} else {
			n.post(ob, outAck, m.OriginAddr, &wire.InsertAck{ReqID: m.ReqID, StoredAt: myInfo, Hops: m.Hops})
		}
	}
}

// replicaTargets picks this node's replica target addresses from its
// current overlay view.
func (n *Node) replicaTargets() []string {
	return replicaSet(n.ov.Code(), n.ov.Contacts(), n.cfg.Replication)
}

// ReplicaTargets exposes the node's current replica target set (§3.8:
// one contact per longest-common-prefix level, deepest first). The chaos
// harness's replica-set-completeness invariant compares this against the
// set of live nodes.
func (n *Node) ReplicaTargets() []string { return n.replicaTargets() }

// replicaSet picks the replica target addresses per §3.8: the contacts
// with the longest common code prefixes with myCode, one per level,
// deepest levels first; m levels in total (all levels for
// ReplicateAll). Level ties break toward the shallower contact code,
// then the smaller address, so every node resolves the same view to the
// same set. Pure function of its inputs for testability.
func replicaSet(myCode bitstr.Code, contacts []wire.NodeInfo, m int) []string {
	if m == 0 {
		return nil
	}
	type cand struct {
		addr  string
		level int
		code  bitstr.Code
	}
	best := make(map[int]cand) // level → chosen contact
	for _, c := range contacts {
		lvl := myCode.CommonPrefixLen(c.Code)
		if lvl >= myCode.Len() {
			continue // prefix-related: transient state
		}
		cur, ok := best[lvl]
		if !ok || c.Code.Len() < cur.code.Len() || (c.Code.Len() == cur.code.Len() && c.Addr < cur.addr) {
			best[lvl] = cand{addr: c.Addr, level: lvl, code: c.Code}
		}
	}
	levels := make([]int, 0, len(best))
	for lvl := range best {
		levels = append(levels, lvl)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(levels)))
	if m > 0 && len(levels) > m {
		levels = levels[:m]
	}
	out := make([]string, 0, len(levels))
	for _, lvl := range levels {
		out = append(out, best[lvl].addr)
	}
	return out
}

// handleInsertAcks settles one envelope's acks under a single n.mu
// acquisition; the callbacks run after the lock drops, as in
// finishInsert.
func (n *Node) handleInsertAcks(acks []*wire.InsertAck) {
	if len(acks) == 0 {
		return
	}
	n.acksReceived.Add(uint64(len(acks)))
	var settled []*insertGroup
	n.mu.Lock()
	for _, m := range acks {
		if g := n.takeInsertLocked(m.ReqID, InsertResult{OK: true, Hops: int(m.Hops), StoredAt: m.StoredAt.Addr}); g != nil {
			settled = append(settled, g)
		}
	}
	n.mu.Unlock()
	for _, g := range settled {
		g.done(g.results)
	}
}

// replicaRun remembers the index and owner of an envelope's previous
// Replicate, so a run from one owner resolves and notes them once.
type replicaRun struct {
	ix    *index
	owner bitstr.Code
}

func (n *Node) handleReplicate(m *wire.Replicate, run *replicaRun) {
	if run.ix == nil || m.Index != run.ix.sch.Tag || m.OwnerCode != run.owner {
		ix, ok := n.getIndex(m.Index)
		if !ok {
			return
		}
		ix.noteReplicaOwner(m.OwnerCode)
		*run = replicaRun{ix, m.OwnerCode}
	}
	if run.ix.sch.CheckRecord(m.Rec) != nil {
		n.droppedRecords.Add(1) // as at the owner: see handleInsert
		return
	}
	run.ix.storeReplica(m.Version, m.RecID, m.Rec)
	n.replicated.Add(1)
}
