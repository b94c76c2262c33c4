package mind

import (
	"errors"
	"testing"

	"mind/internal/schema"
	"mind/internal/transport/simnet"
	"mind/internal/wire"
)

// clientNode is one bootstrapped node plus a "client" endpoint that
// collects what the node replies to it.
func clientNode(t *testing.T) (*simnet.Network, *Node, *[]wire.Message) {
	t.Helper()
	net := simnet.New(simnet.Config{Seed: 1})
	ep, err := net.Endpoint("n0")
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(ep, net.Clock(), DefaultConfig(1))
	t.Cleanup(n.Close)
	n.Bootstrap()
	client, err := net.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	var got []wire.Message
	client.SetHandler(func(_ string, data []byte) {
		m, err := wire.Decode(data)
		if err != nil {
			t.Errorf("client decode: %v", err)
			return
		}
		got = append(got, m)
	})
	return net, n, &got
}

// clientReadsInFlight is the size of the node's in-flight read set.
func clientReadsInFlight(n *Node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.clientReads)
}

// TestClientReadDedupInFlight: a client read is remembered only while it
// is in flight. A duplicate then is absorbed (one DedupHits, no second
// run, no second reply); once the reply leaves, the key is gone, and a
// re-ask runs again. A refused run replies too, and leaves nothing
// behind.
func TestClientReadDedupInFlight(t *testing.T) {
	net, n, got := clientNode(t)
	refuse := func(shed bool) wire.Message { return &wire.ClientQueryResp{ReqID: 1, Shed: shed} }
	var replies []func(wire.Message)
	run := func(reply func(wire.Message)) error {
		replies = append(replies, reply)
		return nil
	}
	key := clientOpKey("client", 1)

	n.serveClientRead("client", key, refuse, run)
	n.serveClientRead("client", key, refuse, run)
	if len(replies) != 1 || n.Stats().DedupHits != 1 {
		t.Fatalf("duplicate in flight: %d runs, %d dedup hits; want 1 and 1", len(replies), n.Stats().DedupHits)
	}
	if c := clientReadsInFlight(n); c != 1 {
		t.Fatalf("%d reads in flight, want 1", c)
	}
	replies[0](&wire.ClientQueryResp{ReqID: 1, Complete: true})
	if c := clientReadsInFlight(n); c != 0 {
		t.Fatalf("%d reads in flight after the reply, want 0", c)
	}
	net.Run(1000)
	if len(*got) != 1 {
		t.Fatalf("client got %d replies to one read asked twice in flight, want 1", len(*got))
	}

	n.serveClientRead("client", key, refuse, run)
	if len(replies) != 2 || n.Stats().DedupHits != 1 {
		t.Fatalf("re-ask after the reply: %d runs, %d dedup hits; want 2 and 1", len(replies), n.Stats().DedupHits)
	}
	replies[1](&wire.ClientQueryResp{ReqID: 1, Complete: true})

	n.serveClientRead("client", clientOpKey("client", 2), refuse, func(func(wire.Message)) error {
		return errors.New("unknown index")
	})
	if c := clientReadsInFlight(n); c != 0 {
		t.Fatalf("%d reads in flight after a refused run, want 0", c)
	}
	net.Run(1000)
	if len(*got) != 3 {
		t.Fatalf("client got %d replies, want 3", len(*got))
	}
	if r, ok := (*got)[2].(*wire.ClientQueryResp); !ok || r.Complete || r.Shed {
		t.Fatalf("refused run replied %+v, want an incomplete, unshed response", (*got)[2])
	}
}

// TestClientReadDedupDrainsAtQueryTimeout: a client query whose scatter
// never completes — b never hears its pieces — replies once, incomplete,
// at QueryTimeout, and that reply empties the in-flight set.
func TestClientReadDedupDrainsAtQueryTimeout(t *testing.T) {
	net, a, _, ta, _, sch := tapPair(t)
	ta.edit = func(to string, msg []byte) []byte {
		m, err := wire.Decode(msg)
		if err != nil {
			panic(err)
		}
		switch m.(type) {
		case *wire.Query, *wire.SubQuery:
			if to == "b" {
				return nil
			}
		}
		return msg
	}
	client, err := net.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	var resp *wire.ClientQueryResp
	client.SetHandler(func(_ string, data []byte) {
		m, err := wire.Decode(data)
		if err != nil {
			t.Errorf("client decode: %v", err)
			return
		}
		resp = m.(*wire.ClientQueryResp)
	})
	rect := schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{9999, 86400, 9999}}
	start := net.Now()
	a.handleClientQuery("client", &wire.ClientQuery{ReqID: 9, Index: sch.Tag, Rect: rect})
	if c := clientReadsInFlight(a); c != 1 {
		t.Fatalf("%d reads in flight, want 1", c)
	}
	if !net.RunUntil(func() bool { return resp != nil }, 10_000_000) {
		t.Fatal("no reply to the client query")
	}
	if resp.Complete || net.Now().Sub(start) < a.cfg.QueryTimeout {
		t.Fatalf("reply complete=%v after %v, want incomplete at QueryTimeout %v", resp.Complete, net.Now().Sub(start), a.cfg.QueryTimeout)
	}
	if c := clientReadsInFlight(a); c != 0 {
		t.Fatalf("%d reads in flight after the timeout reply, want 0", c)
	}
}

// TestClientInsertAckOutlivesReads: reads no longer share the insert
// cache, so 2·dedupCap completed reads evict nothing — a retransmitted
// ClientInsert still gets its cached ack and stores no second record.
func TestClientInsertAckOutlivesReads(t *testing.T) {
	net, n, got := clientNode(t)
	sch := poolTestSchema()
	if err := n.CreateIndex(sch, nil); err != nil {
		t.Fatal(err)
	}
	ins := &wire.ClientInsert{ReqID: 1, Index: sch.Tag, Rec: schema.Record{1, 2, 3}}
	n.handleClientInsert("client", ins)
	net.Run(1000)
	if len(*got) != 1 {
		t.Fatalf("client got %d replies to one insert, want 1", len(*got))
	}
	first := (*got)[0].(*wire.ClientAck)
	if !first.OK {
		t.Fatalf("insert failed: %+v", first)
	}

	// The reads come from an address with no endpoint: their replies
	// are dropped at the network, not queued.
	refuse := func(shed bool) wire.Message { return &wire.ClientQueryResp{Shed: shed} }
	done := func(reply func(wire.Message)) error {
		reply(&wire.ClientQueryResp{Complete: true})
		return nil
	}
	for i := uint64(1); i <= 2*dedupCap; i++ {
		n.serveClientRead("reader", clientOpKey("reader", i), refuse, done)
	}

	hits := n.Stats().DedupHits
	n.handleClientInsert("client", ins)
	net.Run(1000)
	if len(*got) != 2 {
		t.Fatalf("client got %d replies, want 2", len(*got))
	}
	if again := (*got)[1].(*wire.ClientAck); *again != *first {
		t.Fatalf("duplicate insert acked %+v, want the cached %+v", again, first)
	}
	if d := n.Stats().DedupHits - hits; d != 1 {
		t.Fatalf("duplicate insert counted %d dedup hits, want 1", d)
	}
	if s := n.StoredRecords(sch.Tag); s != 1 {
		t.Fatalf("stored %d records after a duplicate insert, want 1", s)
	}
}
