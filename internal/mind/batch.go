package mind

import "mind/internal/wire"

// Envelope-scoped coalescing: while a node handles one inbound
// wire.Batch, one insert group's dispatch or one group retransmission,
// every message the write path emits — forwarded Insert, Replicate,
// InsertAck — is encoded at once into a per-call outbox keyed by
// destination, and when the handler returns each destination gets one
// frame: one envelope in, at most one envelope out per peer and class,
// with no timer and nothing to configure (a lone message leaves bare).
// Everything outside such a scope — messages arriving unbatched, recalls,
// queries, control traffic — passes a nil outbox and sends immediately.
// A lost envelope is N lost datagrams to the reliable layer.
//
// Locking: an outbox belongs to the one call that created it and needs
// no lock; the envelope counters are atomics.

// transportOverheadEstimate approximates the per-message framing and
// header cost a coalesced sub-message avoids (simnet's default
// PerMsgOverheadBytes, and close to TCP/IP header + frame cost), used
// for the bytes-saved counter.
const transportOverheadEstimate = 64

// outboxFlushBytes flushes an outbox early once its pending payload
// reaches it: far below tcpnet.MaxFrame and (every encoded message having
// at least two bytes) wire.MaxBatchMsgs, and inside the wire encode
// pool's 64 KiB bound, so envelope buffers keep recycling.
const outboxFlushBytes = 48 << 10

// outGroup is the pending traffic for one destination.
type outGroup struct {
	to   string
	msgs [][]byte
}

// The two classes of an outbox: data (forwarded Inserts, Replicates)
// flushes before acks, so a replica still leaves before its record's ack.
const (
	outData = iota
	outAck
)

// outbox collects what one envelope-scoped call emits. It holds encoded
// bytes, never message structs: an Insert's Rec may alias an ingest-pooled
// buffer that is recycled the moment the op settles, so whatever
// references the record is serialized before that record's finishInsert
// can run.
type outbox struct {
	n *Node
	// Per class, in first-seen destination order (reproducible on simnet).
	groups   [2][]outGroup
	bytes    int      // pending payload, all groups
	replicas []string // replicaTargets, resolved once per outbox
	resolved bool
}

// post transmits one write-path message: immediately when ob is nil,
// else encoded into the destination's group of the given class.
func (n *Node) post(ob *outbox, class int, to string, m wire.Message) {
	if ob == nil {
		n.send(to, m)
		return
	}
	groups := &ob.groups[class]
	i := 0
	for i < len(*groups) && (*groups)[i].to != to {
		i++
	}
	if i == len(*groups) {
		*groups = append(*groups, outGroup{to: to})
	}
	data := wire.Encode(m)
	(*groups)[i].msgs = append((*groups)[i].msgs, data)
	if ob.bytes += len(data); ob.bytes >= outboxFlushBytes {
		ob.flush() // everything: acks alone would overtake their replicas
	}
}

// replicasFor returns the node's replica targets, resolved at most once
// per outbox (a contacts copy, a level map and a sort).
func (n *Node) replicasFor(ob *outbox) []string {
	if ob == nil {
		return n.replicaTargets()
	}
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
			ob.n.deliverBatch(groups[i].to, groups[i].msgs)
			groups[i].msgs = groups[i].msgs[:0]
		}
	}
	ob.bytes = 0
}

// deliverBatch hands one destination's messages to the transport: a
// single message goes out bare (the envelope would only add overhead),
// more wrap into one wire.Batch.
func (n *Node) deliverBatch(to string, msgs [][]byte) {
	if len(msgs) == 0 {
		return
	}
	if len(msgs) == 1 {
		_ = n.ep.Send(to, msgs[0])
		wire.RecycleBuf(msgs[0])
		return
	}
	n.batchesSent.Add(1)
	n.batchedMsgs.Add(uint64(len(msgs)))
	n.batchBytesSaved.Add(uint64(len(msgs)-1) * transportOverheadEstimate)
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

// handleBatch unwraps a received envelope under one outbox: Inserts
// route or store through it, InsertAcks settle together under a single
// n.mu acquisition, a run of Replicates from one owner resolves its index
// and notes the owner once, and any other kind dispatches as if it had
// arrived alone.
func (n *Node) handleBatch(from string, b *wire.Batch) {
	n.batchesRecv.Add(1)
	n.ov.Handle(from, b) // no overlay message: the sender's liveness touch, once per envelope
	ob := &outbox{n: n}
	var acks []*wire.InsertAck
	var run replicaRun
	for _, sub := range b.Msgs {
		m, err := wire.Decode(sub)
		if err != nil {
			continue // corrupt sub-message; drop
		}
		switch msg := m.(type) {
		case *wire.Insert:
			n.handleInsert(from, msg, ob)
		case *wire.InsertAck:
			acks = append(acks, msg)
		case *wire.Replicate:
			n.handleReplicate(msg, &run)
		default:
			n.handleMessage(from, m)
		}
	}
	n.handleInsertAcks(acks)
	ob.flush()
}
