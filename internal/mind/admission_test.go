package mind_test

import (
	"testing"
	"time"

	"mind/internal/cluster"
	"mind/internal/ingest"
	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/wire"
)

// TestClientAdmissionShed drives a client request flood into a
// rate-limited node over simnet (virtual clock, so the token-bucket
// arithmetic is fully deterministic): the burst is admitted, the excess
// is shed with explicit Shed responses, the shed request ids are NOT
// remembered, and after the bucket refills a retry of a shed request
// executes as a fresh request.
func TestClientAdmissionShed(t *testing.T) {
	const burst = 5
	c := mkCluster(t, 4, 11, func(o *cluster.Options) {
		o.Node.ClientRateLimit = 5 // 5 req/s per client
		o.Node.ClientRateBurst = burst
	})
	if err := c.CreateIndex(testSchema()); err != nil {
		t.Fatal(err)
	}

	client, err := c.Net.Endpoint("client:1")
	if err != nil {
		t.Fatal(err)
	}
	acks := make(map[uint64]*wire.ClientAck)
	var qresps []*wire.ClientQueryResp
	client.SetHandler(func(_ string, data []byte) {
		m, err := wire.Decode(data)
		if err != nil {
			t.Errorf("client decode: %v", err)
			return
		}
		switch r := m.(type) {
		case *wire.ClientAck:
			acks[r.ReqID] = r
		case *wire.ClientQueryResp:
			qresps = append(qresps, r)
		}
	})

	target := c.Nodes[0].Addr()
	// A same-instant flood of 20 inserts: exactly the burst is admitted
	// (no virtual time passes between deliveries, so no refill).
	const flood = 20
	for i := 0; i < flood; i++ {
		rec := schema.Record{uint64(i * 400), uint64(i * 1000), uint64(i * 397), uint64(i)}
		client.Send(target, wire.Encode(&wire.ClientInsert{ReqID: uint64(i + 1), Index: "test-index", Rec: rec}))
	}
	if !c.Net.RunUntil(func() bool { return len(acks) == flood }, 1_000_000) {
		t.Fatalf("only %d/%d responses", len(acks), flood)
	}
	okN, shedN := 0, 0
	for _, a := range acks {
		switch {
		case a.OK && !a.Shed:
			okN++
		case a.Shed && !a.OK:
			shedN++
		default:
			t.Fatalf("ack neither clean success nor shed: %+v", a)
		}
	}
	if okN != burst || shedN != flood-burst {
		t.Fatalf("admitted %d shed %d, want %d/%d", okN, shedN, burst, flood-burst)
	}
	st := c.Nodes[0].Stats()
	if st.ShedInserts != flood-burst {
		t.Fatalf("ShedInserts = %d, want %d", st.ShedInserts, flood-burst)
	}

	// A query flood against the drained bucket sheds with the explicit
	// query-side flag.
	client.Send(target, wire.Encode(&wire.ClientQuery{ReqID: 100, Index: "test-index", Rect: fullRect()}))
	if !c.Net.RunUntil(func() bool { return len(qresps) == 1 }, 1_000_000) {
		t.Fatal("no query response")
	}
	if !qresps[0].Shed || qresps[0].Complete {
		t.Fatalf("query against drained bucket: %+v", qresps[0])
	}
	if c.Nodes[0].Stats().ShedQueries != 1 {
		t.Fatalf("ShedQueries = %d, want 1", c.Nodes[0].Stats().ShedQueries)
	}

	// Refill, then retry one of the shed request ids: it must execute as
	// a fresh request (shed ids are never cached), and the node must not
	// have stored any of the shed records.
	var shedID uint64
	for id, a := range acks {
		if a.Shed {
			shedID = id
			break
		}
	}
	c.Settle(2 * time.Second) // 5/s for 2s virtual seconds ≫ 1 token
	delete(acks, shedID)
	rec := schema.Record{7, 7, 7, 7}
	client.Send(target, wire.Encode(&wire.ClientInsert{ReqID: shedID, Index: "test-index", Rec: rec}))
	if !c.Net.RunUntil(func() bool { _, ok := acks[shedID]; return ok }, 1_000_000) {
		t.Fatal("no response to retried shed request")
	}
	if a := acks[shedID]; !a.OK || a.Shed {
		t.Fatalf("retry of shed request: %+v", a)
	}

	// Exactly the admitted inserts landed: the burst plus the retry.
	total := 0
	for _, nd := range c.Nodes {
		total += nd.StoredRecords("test-index")
	}
	if total != burst+1 {
		t.Fatalf("stored %d records, want %d", total, burst+1)
	}
}

// TestAdmitPendingCeilingSharedWithIngest: a node sheds a ClientInsert,
// and the ingest engine in front of it refuses a record, at the same
// in-flight count, mind.MaxPendingInserts; one below it both admit.
func TestAdmitPendingCeilingSharedWithIngest(t *testing.T) {
	c := mkCluster(t, 1, 12, nil)
	if err := c.CreateIndex(testSchema()); err != nil {
		t.Fatal(err)
	}
	node := c.Nodes[0]
	eng := ingest.New(node, ingest.Config{Shards: 1, RingSize: 64, Synchronous: true, NodePending: node.PendingInserts})
	defer eng.Close()

	client, err := c.Net.Endpoint("client:1")
	if err != nil {
		t.Fatal(err)
	}
	acks := make(map[uint64]*wire.ClientAck)
	client.SetHandler(func(_ string, data []byte) {
		if a, err := wire.Decode(data); err == nil {
			if a, ok := a.(*wire.ClientAck); ok {
				acks[a.ReqID] = a
			}
		}
	})
	for i, pending := range []int{mind.MaxPendingInserts, mind.MaxPendingInserts - 1} {
		admit := pending < mind.MaxPendingInserts
		node.SetPendingInserts(pending)
		if got := eng.Submit("test-index", schema.Record{1, 1, 1, 1}); got != admit {
			t.Fatalf("%d pending: ingest admitted %v, want %v", pending, got, admit)
		}
		id := uint64(i + 1)
		client.Send(node.Addr(), wire.Encode(&wire.ClientInsert{ReqID: id, Index: "test-index", Rec: schema.Record{2, 2, 2, 2}}))
		if !c.Net.RunUntil(func() bool { return acks[id] != nil }, 1_000_000) {
			t.Fatalf("%d pending: no answer to the client insert", pending)
		}
		if a := acks[id]; a.Shed == admit || a.OK != admit {
			t.Fatalf("%d pending: client insert answered %+v, want admitted %v", pending, a, admit)
		}
	}
}

// TestGossipAdmissionShed rate-limits flood gossip on the receiving
// side: with a one-message bucket, the first flood lands and the second
// is counted as shed — and because the refusal happens before the dedup
// mark, a re-flood after refill still applies.
func TestGossipAdmissionShed(t *testing.T) {
	c := mkCluster(t, 2, 12, func(o *cluster.Options) {
		o.Node.GossipRateLimit = 0.5 // one flood per 2s per peer, one-message bucket
	})
	if err := c.Nodes[0].CreateIndex(testSchema(), nil); err != nil {
		t.Fatal(err)
	}
	ok := c.Net.RunUntil(func() bool { return c.Nodes[1].HasIndex("test-index") }, 1_000_000)
	if !ok {
		t.Fatal("create flood did not land within the burst")
	}

	// Immediate drop: the bucket at node 1 is drained, so the flood is
	// shed and node 1 keeps the index.
	if err := c.Nodes[0].DropIndex("test-index"); err != nil {
		t.Fatal(err)
	}
	c.Settle(500 * time.Millisecond)
	if !c.Nodes[1].HasIndex("test-index") {
		t.Fatal("drop flood landed despite a drained gossip bucket")
	}
	if shed := c.Nodes[1].Stats().ShedGossip; shed == 0 {
		t.Fatal("no gossip recorded as shed")
	}

	// After refill, flooding works again: node 0 (which already dropped
	// locally) re-creates — idempotent at node 1, but consuming its
	// refilled token — waits out another refill, then re-floods the drop,
	// which must now land. The shed happened before the dedup mark, so
	// the re-flooded drop (a fresh op id) is not poisoned.
	c.Settle(4 * time.Second)
	if err := c.Nodes[0].CreateIndex(testSchema(), nil); err != nil {
		t.Fatal(err)
	}
	c.Settle(4 * time.Second)
	if err := c.Nodes[0].DropIndex("test-index"); err != nil {
		t.Fatal(err)
	}
	dropped := c.Net.RunUntil(func() bool { return !c.Nodes[1].HasIndex("test-index") }, 1_000_000)
	if !dropped {
		t.Fatal("refilled gossip bucket still shedding")
	}
}
