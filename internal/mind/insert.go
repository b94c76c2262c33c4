package mind

import (
	"fmt"
	"slices"
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
	// retransmission is a repeat, which an owner holding the record
	// already acks without storing; but it may race its first copy
	// through ring recovery onto distinct owners, so an acked record can
	// end up stored twice, and callers needing exact aggregate oracles
	// (the chaos differential) treat Attempts > 0 as a duplicate risk.
	Attempts int
	Err      error
}

// insertOp is one record an originator inserts: a member of the
// insertGroup it settles into. It keeps what a retransmission resends
// (reliable.go) until the ack arrives or the group times out; the index
// tag is the group's, the origin this node.
type insertOp struct {
	grp     *insertGroup
	slot    int    // position in the group, and in its results
	reqID   uint64 // the ack key, minted by sendInserts
	recID   uint64
	version uint32
	epoch   uint64 // the tree epoch target was computed under
	target  bitstr.Code
	rec     schema.Record // may alias the submitter's buffer
	repeat  bool          // a repair re-insert: the record may be stored at target already
	forward bool          // the first dispatch leaves through lastHop ("": ring recovery)
	lastHop string        // first hop the latest attempt left through
}

// inflight is op leaving its originator, under tag, on attempt: its hop
// count starts at zero on every attempt, and a retransmission is a repeat
// (its first copy may have been stored).
func (op *insertOp) inflight(origin, tag string, attempt int) insertRec {
	return insertRec{origin: origin, index: tag, version: op.version, epoch: op.epoch,
		attempt: uint8(min(attempt, wire.MaxAttempt)), repeat: op.repeat || attempt > 0,
		reqID: op.reqID, recID: op.recID, target: op.target, rec: op.rec}
}

// insertRec is one record on the write path at the node handling it: the
// header of the run it travels in, its column values, and the record —
// as the bytes it arrived in (enc, spliced on unchanged when forwarded or
// replicated) and as values (rec: the originator's own, or decoded from
// enc where this node owns the target).
type insertRec struct {
	origin, index string
	version       uint32
	epoch         uint64
	attempt       uint8
	repeat        bool // the run's Repeat bit
	reqID, recID  uint64
	target        bitstr.Code
	hops          uint8
	enc           []byte
	rec           schema.Record
	ix            *index   // the index, resolved once along a run
	buf           []uint64 // decode scratch, reused along a run
}

// values returns the record's values, decoded from enc on first use into
// the run's scratch: the store copies them, and nothing else keeps them.
func (r *insertRec) values() schema.Record {
	if r.rec == nil {
		r.buf = wire.RecInto(r.enc, r.buf)
		r.rec = r.buf
	}
	return r.rec
}

// appendTo adds r to run, whose header it shares.
func (r *insertRec) appendTo(run *wire.InsertRun) {
	run.ReqIDs, run.RecIDs = append(run.ReqIDs, r.reqID), append(run.RecIDs, r.recID)
	run.Targets, run.Hops = append(run.Targets, r.target), append(run.Hops, r.hops)
	r.addRec(&run.Recs)
}

// insertGroup is what every insert is a member of: the ops of one
// sendInserts call — one for Insert, N for InsertBatch and for a repair's
// re-inserts of one index (rehome.go) — sharing one InsertTimeout timer,
// one retransmission schedule and one callback. Per-record timers are the
// dominant originator-side cost at streaming-ingest rates (two timer
// allocations and heap operations per record); the group keeps per-record
// ack tracking, retransmission targeting and timeout semantics and owns
// the two timers, which end with its last member. n.mu guards it.
type insertGroup struct {
	tag     string               // the members' index
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
// directly, and everything the pass emits — forwarded records, and the
// replicas of locally stored ones — leaves through one outbox, so each
// neighbor receives one frame of runs instead of one message per record
// (§3.5's per-record stream is the hot path this collapses). Every record
// is still acked by its own ReqID; cb (nil for fire-and-forget) receives
// one InsertResult per input record, in input order, once all have been
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
	// bookkeeping. The ops are one slab allocation.
	depth := clampDepth(n.ov.Code().Len() + n.cfg.InsertDepthSlack)
	ops := make([]insertOp, len(recs))
	var pbuf [8]uint64
	scratch := pbuf[:0]
	for i, rec := range recs {
		v := ix.version(rec, n.cfg.VersionSeconds)
		tree, epoch := ix.treeAndEpoch(v)
		scratch = rec.PointInto(ix.sch, scratch)
		ops[i] = insertOp{recID: n.nextRecID(), version: v, epoch: epoch, rec: rec, target: tree.PointCode(scratch, depth)}
	}
	n.sendInserts(tag, ops, cb)
	return nil
}

// sendInserts is the one way an insert leaves its originator: the hashed
// ops of one call, all of index tag, are routed, registered as one
// insertGroup, dispatched through one outbox and put on one
// retransmission schedule; done (nil for fire-and-forget) receives every
// member's outcome once the last settles. Every group is tracked, even a
// fire-and-forget one: retransmission needs the pending-ack state, and
// InsertTimeout bounds how long an entry can linger.
func (n *Node) sendInserts(tag string, ops []insertOp, done func([]InsertResult)) {
	// Route with no lock held. Nothing is shared yet, so the ops may still
	// be written.
	for i := range ops {
		if op := &ops[i]; !n.ov.Owns(op.target) {
			op.forward = true
			op.lastHop, _ = n.ov.NextHop(op.target)
		}
	}
	grp := &insertGroup{tag: tag, ops: ops, pending: len(ops), done: done}
	if done != nil {
		grp.results = make([]InsertResult, len(ops))
	}
	n.reqTracked.Add(uint64(len(ops)))
	n.pendingGauge.Add(int64(len(ops)))
	n.mu.Lock()
	for i := range ops {
		op := &ops[i]
		op.grp, op.slot, op.reqID = grp, i, n.nextReq()
		n.inserts[op.reqID] = op
	}
	grp.timeout = n.clock.AfterFunc(n.cfg.InsertTimeout, func() {
		for i := range grp.ops {
			n.finishInsert(grp.ops[i].reqID, InsertResult{OK: false, Err: errTimeout})
		}
	})
	n.mu.Unlock()

	ob := &outbox{n: n}
	self := n.ep.Addr()
	for i := range ops {
		r := ops[i].inflight(self, tag, 0)
		switch next := ops[i].lastHop; {
		case !ops[i].forward:
			n.routeInsert(&r, ob)
		case next == "":
			r.hops = 1
			n.ringRecover(&r)
		default:
			r.hops = 1 // leaving the originator
			n.forwarded.Add(1)
			n.countTuples(next, 1)
			n.postInsert(ob, next, &r)
		}
	}
	ob.flush()
	// The schedule is armed only now: the loop above reads lastHop with no
	// lock, and a check firing on a short RetryBase writes it. The backoff
	// is drawn even when every member has already settled (local stores),
	// so a node's jitter sequence depends on how many groups it sent, not
	// on where their records landed.
	n.mu.Lock()
	grp.retry.armLocked(n, func() { n.resendInsertGroup(grp) })
	if grp.pending == 0 {
		grp.retry.stop()
	}
	n.mu.Unlock()
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

// takeInsertLocked settles an insert: the op leaves the table with
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

// handleInsertRun routes or stores every record of an inbound insert
// run through ob, one at a time: values are decoded only where this node
// owns a record, into one scratch buffer, and a forwarded record's bytes
// are spliced on.
func (n *Node) handleInsertRun(m *wire.InsertRun, ob *outbox) {
	r := insertRec{origin: m.OriginAddr, index: m.Index, version: m.Version, attempt: m.Attempt, repeat: m.Repeat}
	cur := m.Recs.Cursor()
	for i, reqID := range m.ReqIDs {
		r.epoch, r.reqID, r.recID, r.target, r.hops = m.TreeEpoch, reqID, m.RecIDs[i], m.Targets[i], m.Hops[i]
		r.enc, r.rec = cur.Next(), nil
		n.routeInsert(&r, ob)
	}
}

// routeInsert processes one routed record at any hop. Version-skew
// detection happens only here at the ownership point, never on pure
// forwarding hops: routing needs no tree (Target travels with the
// record), so an intermediate node's stale tree cannot misroute.
func (n *Node) routeInsert(r *insertRec, ob *outbox) {
	if !n.ov.Joined() {
		return
	}
	target := r.target
	if !n.ov.Owns(target) {
		n.forwardInsert(r, ob)
		return
	}
	myCode := n.ov.Code()
	if r.ix == nil {
		if r.ix, _ = n.getIndex(r.index); r.ix == nil {
			return
		}
	}
	ix := r.ix
	// The one place a wire record enters the primary store (and the
	// re-homing point computation): originators arity-check their own
	// records, a peer's bytes are checked here. The store keeps
	// fixed-stride rows, so a short record would panic and a long one be
	// truncated.
	if ix.sch.CheckRecord(r.values()) != nil {
		n.droppedRecords.Add(1)
		return
	}
	if local := ix.epochOf(r.version); r.epoch != local {
		n.skewInserts.Add(1)
		if r.epoch > local {
			// The originator hashed with a newer tree than ours — we
			// missed an install. Its Target is authoritative, and storing
			// needs no tree, so accept the record whenever the code
			// discriminates at our depth; catch up in parallel.
			n.treePull(r.origin, r.index, r.version)
			if target.Len() >= myCode.Len() {
				n.storeAsOwner(ix, r, ob)
			}
			// Too-shallow target: deepening would need the newer tree we
			// don't have yet. Drop — the originator's retransmission
			// redelivers after the pull lands.
			return
		}
		// The originator is behind: its Target was computed with a
		// superseded tree, so the record may belong elsewhere under the
		// current cuts. Push our tree back (rate-limited), recompute the
		// placement locally and store or re-route.
		n.treePushTo(r.origin, ix, r.version)
		if local&retiredEpochBit != 0 {
			return // version retired here: the pushed marker stops the originator
		}
		n.rehomeInsert(ix, r, myCode, ob)
		return
	}
	if target.Len() < myCode.Len() {
		// Target code too shallow to discriminate among the nodes in its
		// region: recompute it deeper from the record itself (§3.5: the
		// computed code may not exactly match a node's code). Point codes
		// are prefix-stable, so the extension preserves routing progress.
		n.rehomeInsert(ix, r, myCode, ob)
		return
	}
	n.storeAsOwner(ix, r, ob)
}

// rehomeInsert recomputes r's target from the record itself, under this
// node's current tree and at its depth, then stores or re-routes it.
func (n *Node) rehomeInsert(ix *index, r *insertRec, myCode bitstr.Code, ob *outbox) {
	tree, epoch := ix.treeAndEpoch(r.version)
	var pbuf [8]uint64
	p := r.values().PointInto(ix.sch, pbuf[:0])
	ext := *r
	ext.target = tree.PointCode(p, clampDepth(myCode.Len()+n.cfg.InsertDepthSlack))
	ext.epoch = epoch
	if n.ov.Owns(ext.target) {
		n.storeAsOwner(ix, &ext, ob)
	} else {
		n.forwardInsert(&ext, ob)
	}
}

// forwardInsert sends a routed record one hop on.
func (n *Node) forwardInsert(r *insertRec, ob *outbox) {
	r.hops++
	if next, ok := n.ov.NextHop(r.target); ok {
		n.forwarded.Add(1)
		n.countTuples(next, 1)
		if r.origin == n.ep.Addr() {
			// Record the first hop so a retransmission can exclude it.
			n.mu.Lock()
			if op, ok := n.inserts[r.reqID]; ok {
				op.lastHop = next
			}
			n.mu.Unlock()
		}
		n.postInsert(ob, next, r)
		return
	}
	n.ringRecover(r)
}

// ringRecover hands a record at a dead end to the expanding-ring
// broadcast (§3.8), as a run of one. Ring recovery may deliver it more
// than once, so it travels as a repeat.
func (n *Node) ringRecover(r *insertRec) {
	run := wire.InsertRun{OriginAddr: r.origin, Index: r.index, Version: r.version, TreeEpoch: r.epoch, Attempt: r.attempt, Repeat: true}
	r.appendTo(&run)
	n.ov.RingRecover(r.target, wire.Encode(&run))
}

// storeAsOwner stores the record, replicates it, and acks the origin,
// all through ob. It runs without any node-wide lock: the per-index
// dedup+insert is atomic inside storeRecord, trigger matching locks the
// index, and the sends happen lock-free.
func (n *Node) storeAsOwner(ix *index, r *insertRec, ob *outbox) {
	rec := r.values()
	isNew := ix.storeRecord(r.version, r.recID, rec, r.repeat)
	var fired []*trigger
	if isNew {
		n.stored.Add(1)
		fired = ix.fireTriggers(n.clock.Now(), r.recID, rec)
	} else {
		// Retransmission (or ring double-delivery) of a record already
		// stored, or a repeat of a byte-identical stored copy: idempotent,
		// but the origin still needs the ack below — the lost message may
		// have been the previous ack.
		n.dedupHits.Add(1)
	}
	myInfo := n.ov.Info()
	replicas := n.replicasFor(ob)

	for _, tr := range fired {
		fire := &wire.TriggerFire{
			TriggerID: tr.id,
			Index:     r.index,
			From:      myInfo,
			RecID:     r.recID,
			Rec:       rec,
		}
		if tr.subscriber == n.ep.Addr() {
			// The event keeps its record, and rec is the submitter's
			// buffer (recycled once the insert settles) or a run's decode
			// scratch: the local subscriber gets a copy.
			fire.Rec = slices.Clone(rec)
			n.handleTriggerFire(fire)
		} else {
			n.send(tr.subscriber, fire)
		}
	}

	if isNew {
		for _, addr := range replicas {
			n.postReplica(ob, addr, myInfo.Code, r)
		}
	}
	if r.origin == n.ep.Addr() {
		n.finishInsert(r.reqID, InsertResult{OK: true, Hops: int(r.hops), StoredAt: myInfo.Addr})
	} else {
		n.postAck(ob, myInfo, r)
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

// handleInsertAcks settles an ack run under a single n.mu acquisition;
// the callbacks run after the lock drops, as in finishInsert.
func (n *Node) handleInsertAcks(m *wire.InsertAcks) {
	n.acksReceived.Add(uint64(len(m.ReqIDs)))
	var settled []*insertGroup
	n.mu.Lock()
	for i, reqID := range m.ReqIDs {
		if g := n.takeInsertLocked(reqID, InsertResult{OK: true, Hops: int(m.Hops[i]), StoredAt: m.StoredAt.Addr}); g != nil {
			settled = append(settled, g)
		}
	}
	n.mu.Unlock()
	for _, g := range settled {
		g.done(g.results)
	}
}

// handleReplicateRun stores a replicate run's records in replica storage,
// resolving the index and noting the owner once.
func (n *Node) handleReplicateRun(m *wire.ReplicateRun) {
	ix, ok := n.getIndex(m.Index)
	if !ok {
		return
	}
	ix.noteReplicaOwner(m.OwnerCode)
	var buf [8]uint64
	rec := buf[:0]
	cur := m.Recs.Cursor()
	for _, recID := range m.RecIDs {
		rec = wire.RecInto(cur.Next(), rec)
		if ix.sch.CheckRecord(rec) != nil {
			n.droppedRecords.Add(1) // as at the owner: see routeInsert
			continue
		}
		if ix.storeReplica(m.Version, recID, rec) {
			n.replicated.Add(1)
		}
	}
}
