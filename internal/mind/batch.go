package mind

import (
	"mind/internal/bitstr"
	"mind/internal/wire"
)

// Envelope-scoped coalescing: while a node handles one inbound frame of
// write-path traffic (a wire.Batch or a bare run), one insert group's
// dispatch or one group retransmission, every record the write path
// emits — forwarded, replicated or acked — joins an open run in a
// per-call outbox, one run per destination, class and header, and when
// the handler returns each destination gets one frame per class: its
// runs, each encoded once, bare when there is one and wrapped in a
// wire.Batch otherwise — with no timer and nothing to configure. The
// repairs take the same path: their re-inserts are insert groups
// (rehome.go), and takeover re-replication posts through one outbox. A
// lost frame is N lost datagrams to the reliable layer.
//
// Locking: an outbox belongs to the one call that created it and needs
// no lock; the envelope counters are atomics.

// outboxFlushBytes flushes an outbox early once its pending payload
// reaches it: far below tcpnet.MaxFrame and (every run carrying at least
// one record) wire.MaxBatchMsgs, and inside the wire encode pool's 64 KiB
// bound, so envelope buffers keep recycling. The payload is booked at
// eight bytes a value (valueBytes), which a packed group never exceeds
// by more than its header.
const outboxFlushBytes = 48 << 10

// valueBytes is what the outbox books per value a row adds.
const valueBytes = 8

// outGroup is the pending traffic of one class for one destination: its
// open runs, in first-seen header order.
type outGroup struct {
	to   string
	runs []wire.Message // *wire.InsertRun, *wire.ReplicateRun, *wire.InsertAcks
}

// The two classes of an outbox: data (insert and replicate runs) flushes
// before acks, so a replica still leaves before its record's ack.
const (
	outData = iota
	outAck
)

// outbox collects what one envelope-scoped call emits. Its runs hold
// copies of the records, never the value slices they were handed: an
// originator's record may alias an ingest-pooled buffer that is recycled
// the moment the op settles, and a forwarded one is a row of an inbound
// run's decode scratch, so each joins its run's open group, which copies
// it (wire.Groups.AppendRow), before that record's finishInsert can run
// or the next group is decoded.
type outbox struct {
	n *Node
	// Per class, in first-seen destination order (reproducible on simnet).
	groups   [2][]outGroup
	bytes    int      // pending payload, all groups
	replicas []string // replicaTargets, resolved once per outbox
	resolved bool
}

// group returns the destination's group of the given class, opening it
// on first use.
func (ob *outbox) group(class int, to string) *outGroup {
	groups := &ob.groups[class]
	for i := range *groups {
		if (*groups)[i].to == to {
			return &(*groups)[i]
		}
	}
	*groups = append(*groups, outGroup{to: to})
	return &(*groups)[len(*groups)-1]
}

// added books a row of that many values and flushes everything once
// the pending payload reaches outboxFlushBytes (acks alone would
// overtake their replicas).
func (ob *outbox) added(values int) {
	if ob.bytes += valueBytes * values; ob.bytes >= outboxFlushBytes {
		ob.flush()
	}
}

// postInsert sends r one hop on, to: into the open insert run of its
// header.
func (n *Node) postInsert(ob *outbox, to string, r *insertRec) {
	g := ob.group(outData, to)
	var run *wire.InsertRun
	for _, m := range g.runs {
		if x, ok := m.(*wire.InsertRun); ok && x.Version == r.version && x.TreeEpoch == r.epoch &&
			x.Attempt == r.attempt && x.Repeat == r.repeat && x.Index == r.index && x.OriginAddr == r.origin {
			run = x
			break
		}
	}
	if run == nil {
		run = &wire.InsertRun{OriginAddr: r.origin, Index: r.index, Version: r.version, TreeEpoch: r.epoch, Attempt: r.attempt, Repeat: r.repeat}
		g.runs = append(g.runs, run)
	}
	run.Append(r.reqID, r.target, r.hops, r.rec)
	ob.added(wire.InsertCols + len(r.rec))
}

// postReplica copies r, just stored here as owner, to the replica target
// to.
func (n *Node) postReplica(ob *outbox, to string, owner bitstr.Code, r *insertRec) {
	g := ob.group(outData, to)
	var run *wire.ReplicateRun
	for _, m := range g.runs {
		if x, ok := m.(*wire.ReplicateRun); ok && x.Version == r.version && x.OwnerCode == owner && x.Index == r.index {
			run = x
			break
		}
	}
	if run == nil {
		run = &wire.ReplicateRun{Index: r.index, Version: r.version, OwnerCode: owner}
		g.runs = append(g.runs, run)
	}
	run.Recs.AppendRow(r.rec)
	ob.added(len(r.rec))
}

// postAck acks r's storage at this node (at) to its origin.
func (n *Node) postAck(ob *outbox, at wire.NodeInfo, r *insertRec) {
	g := ob.group(outAck, r.origin)
	var run *wire.InsertAcks
	for _, m := range g.runs {
		if x, ok := m.(*wire.InsertAcks); ok && x.StoredAt == at {
			run = x
			break
		}
	}
	if run == nil {
		run = &wire.InsertAcks{StoredAt: at}
		g.runs = append(g.runs, run)
	}
	run.Append(r.reqID, r.hops)
	ob.added(2)
}

// replicasFor returns the node's replica targets, resolved at most once
// per outbox (a contacts copy, a level map and a sort).
func (n *Node) replicasFor(ob *outbox) []string {
	if !ob.resolved {
		ob.replicas, ob.resolved = n.replicaTargets(), true
	}
	return ob.replicas
}

// flush sends every pending group, data before acks. The outbox stays
// usable afterwards.
func (ob *outbox) flush() {
	for _, groups := range ob.groups {
		for i := range groups {
			g := &groups[i]
			ob.n.deliver(g.to, g.runs)
			clear(g.runs)
			g.runs = g.runs[:0]
		}
	}
	ob.bytes = 0
}

// deliver hands one destination's runs to the transport: each run
// encoded once, a single run bare (the envelope would only add overhead),
// more wrapped into one wire.Batch. A frame carrying more than one record
// counts as an envelope.
func (n *Node) deliver(to string, runs []wire.Message) {
	if len(runs) == 0 {
		return
	}
	recs := 0
	for _, m := range runs {
		recs += runRecords(m)
	}
	if recs > 1 {
		n.batchesSent.Add(1)
		n.batchedMsgs.Add(uint64(recs))
	}
	if len(runs) == 1 {
		n.send(to, runs[0])
		return
	}
	msgs := make([][]byte, len(runs))
	for i, m := range runs {
		msgs[i] = wire.Encode(m)
	}
	env := wire.Encode(&wire.Batch{Msgs: msgs})
	_ = n.ep.Send(to, env)
	// Both transports have consumed the bytes by the time Send returns
	// (simnet copies, tcpnet writes the frame), so the envelope and the
	// sub-message buffers it copied can all go back to the pool.
	wire.RecycleBuf(env)
	for _, sub := range msgs {
		wire.RecycleBuf(sub)
	}
}

// runRecords is the number of records a write-path run carries, 0 for
// any other message.
func runRecords(m wire.Message) int {
	switch m := m.(type) {
	case *wire.InsertRun:
		return m.Rows.Len()
	case *wire.ReplicateRun:
		return m.Recs.Len()
	case *wire.InsertAcks:
		return m.Rows.Len()
	}
	return 0
}

// handleWrite handles one inbound frame's messages — an envelope's, or a
// bare run alone — under one outbox: insert runs route or store through
// it, ack runs settle under one n.mu acquisition each, replicate runs
// store, and any other kind dispatches as if it had arrived alone. A
// frame carrying more than one record counts as an envelope.
func (n *Node) handleWrite(from string, msgs ...wire.Message) {
	ob := &outbox{n: n}
	recs := 0
	for _, m := range msgs {
		recs += runRecords(m)
		switch msg := m.(type) {
		case *wire.InsertRun:
			n.handleInsertRun(from, msg, ob)
		case *wire.InsertAcks:
			n.handleInsertAcks(msg)
		case *wire.ReplicateRun:
			n.handleReplicateRun(msg)
		default:
			n.handleMessage(from, m)
		}
	}
	if recs > 1 {
		n.batchesRecv.Add(1)
	}
	ob.flush()
}

// handleBatch unwraps a received envelope and handles its sub-messages
// under one outbox.
func (n *Node) handleBatch(from string, b *wire.Batch) {
	n.ov.Handle(from, b) // no overlay message: the sender's liveness touch, once per envelope
	msgs := make([]wire.Message, 0, len(b.Msgs))
	for _, sub := range b.Msgs {
		if m, err := wire.Decode(sub); err == nil {
			msgs = append(msgs, m)
		} // else a corrupt sub-message: drop it
	}
	n.handleWrite(from, msgs...)
}
