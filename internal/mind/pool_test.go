package mind

import (
	"errors"
	"testing"

	"mind/internal/bitstr"
	"mind/internal/schema"
	"mind/internal/transport"
	"mind/internal/transport/simnet"
	"mind/internal/wire"
)

func poolTestSchema() *schema.Schema {
	return &schema.Schema{
		Tag: "pool-test",
		Attrs: []schema.Attr{
			{Name: "x", Kind: schema.KindUint, Max: 9999},
			{Name: "t", Kind: schema.KindTime, Max: 86400},
			{Name: "y", Kind: schema.KindUint, Max: 9999},
		},
		IndexDims: 3,
	}
}

// TestInsertOriginatorKeepsPooledBuffer is the regression test for the
// originator-path buffer leak: Insert used to encode the message into a
// pooled buffer it never sent nor recycled, draining the encode pool by
// one buffer per insert. A local-owner insert performs no sends at all —
// checked in every build — so the pool's resident buffer must survive it
// untouched, which only a build without the race detector can observe:
// race mode randomizes sync.Pool retention.
func TestInsertOriginatorKeepsPooledBuffer(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 1})
	ep, err := net.Endpoint("n0")
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(ep, net.Clock(), DefaultConfig(1))
	defer n.Close()
	n.Bootstrap()
	sch := poolTestSchema()
	if err := n.CreateIndex(sch, nil); err != nil {
		t.Fatal(err)
	}

	// Converge on the buffer sitting in the pool's fast slot: encode and
	// recycle until the same buffer round-trips twice. The probe encodes
	// larger than any message the insert path could build, so a stray
	// encode inside Insert cannot skip the resident buffer as too small.
	probe := insertOne("n0", sch.Tag, 0, 0, bitstr.Empty, make([]uint64, 64))
	var resident *byte
	for i := 0; i < 10; i++ {
		b := wire.Encode(probe)
		p := &b[0]
		wire.RecycleBuf(b)
		if p == resident {
			break
		}
		resident = p
	}

	sent := net.Stats().Sent
	done := false
	err = n.Insert(sch.Tag, schema.Record{1, 2, 3}, func(res InsertResult) {
		if !res.OK {
			t.Errorf("local insert failed: %v", res.Err)
		}
		done = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("local-owner insert did not settle inline")
	}
	if d := net.Stats().Sent - sent; d != 0 {
		t.Fatalf("local-owner insert performed %d sends, want 0", d)
	}
	if raceDetectorEnabled {
		return
	}

	b := wire.Encode(probe)
	defer wire.RecycleBuf(b)
	if &b[0] != resident {
		t.Fatalf("pooled encode buffer vanished across a local insert: the originator path is leaking pool buffers again")
	}
}

// failEndpoint fails every Send, standing in for a peer whose transport
// connection is down.
type failEndpoint struct{ addr string }

func (e *failEndpoint) Addr() string                     { return e.addr }
func (e *failEndpoint) Send(to string, msg []byte) error { return errors.New("send failed") }
func (e *failEndpoint) SetHandler(h transport.Handler)   {}
func (e *failEndpoint) Close() error                     { return nil }

// TestBatchDeliverRecycleOnSendError audits the outbox's buffer
// recycling when the transport rejects the send: the envelope and every
// sub-message must go back to the pool exactly once — a double recycle
// would hand the same buffer to two later Encode calls at once.
func TestBatchDeliverRecycleOnSendError(t *testing.T) {
	n := NewNode(&failEndpoint{addr: "self"}, transport.RealClock{}, DefaultConfig(1))
	defer n.Close()
	n.Bootstrap()

	// Two flushes of one outbox (a data envelope of two runs and a bare
	// ack run, then an ack run from the reused groups) and one
	// single-record bare delivery, all through the failing Send.
	ob := &outbox{n: n}
	rec := func(i int) *insertRec {
		return &insertRec{origin: "peer", index: "x", reqID: uint64(i), rec: schema.Record{1, 2, 3}}
	}
	for i := 0; i < 4; i++ {
		n.postInsert(ob, "peer", rec(i))
		n.postReplica(ob, "peer", bitstr.Empty, rec(i))
		n.postAck(ob, wire.NodeInfo{Addr: "self"}, rec(i))
	}
	ob.flush()
	for i := 4; i < 8; i++ {
		n.postAck(ob, wire.NodeInfo{Addr: "self"}, rec(i))
	}
	ob.flush()
	ob.flush() // nothing pending: must not re-deliver recycled buffers
	n.postAck(ob, wire.NodeInfo{Addr: "self"}, rec(99))
	ob.flush()

	// Pool integrity: while previously-handed-out buffers are still
	// held, no Encode may return the same backing array twice.
	seen := make(map[*byte]bool)
	var held [][]byte
	for i := 0; i < 16; i++ {
		ack := &wire.InsertAcks{}
		ack.Append(uint64(100+i), 0)
		b := wire.Encode(ack)
		if seen[&b[0]] {
			t.Fatalf("encode returned the same buffer twice: a batch-path buffer was recycled more than once")
		}
		seen[&b[0]] = true
		held = append(held, b)
	}
	for _, b := range held {
		wire.RecycleBuf(b)
	}
}
