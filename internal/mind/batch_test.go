package mind_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"mind/internal/cluster"
	"mind/internal/mind"
	"mind/internal/schema"
)

// insertRecords drives nrecs records through InsertBatch in groups of
// batchSize from rotating origin nodes and returns how many acked OK.
func insertRecords(t *testing.T, c *cluster.Cluster, tag string, seed int64, nrecs, batchSize int) int {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	ok := 0
	origin := 0
	for off := 0; off < nrecs; off += batchSize {
		n := batchSize
		if off+n > nrecs {
			n = nrecs - off
		}
		recs := make([]schema.Record, n)
		for i := range recs {
			recs[i] = randRec(r)
		}
		res, _, err := c.InsertBatchWait(origin%len(c.Nodes), tag, recs)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != n {
			t.Fatalf("got %d results for %d records", len(res), n)
		}
		for _, rr := range res {
			if rr.OK {
				ok++
			}
		}
		origin++
	}
	return ok
}

func TestInsertBatchStoresAndQueries(t *testing.T) {
	c := mkCluster(t, 16, 5, nil)
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	const nrecs = 120
	if ok := insertRecords(t, c, sch.Tag, 99, nrecs, 24); ok != nrecs {
		t.Fatalf("acked %d/%d batched inserts", ok, nrecs)
	}
	qr, _, err := c.QueryWait(3, sch.Tag, fullRect())
	if err != nil {
		t.Fatal(err)
	}
	if !qr.Complete || len(qr.Records) != nrecs {
		t.Fatalf("query after batch insert: complete=%v records=%d want %d",
			qr.Complete, len(qr.Records), nrecs)
	}
}

func TestInsertBatchEdgeCases(t *testing.T) {
	c := mkCluster(t, 4, 6, nil)
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	// Unknown index errors.
	if err := c.Nodes[0].InsertBatch("ghost", []schema.Record{{1, 2, 3, 4}}, nil); err == nil {
		t.Error("unknown index accepted")
	}
	// A bad record rejects the whole batch before anything is sent.
	bad := []schema.Record{{1, 2, 3, 4}, {1, 2}}
	if err := c.Nodes[0].InsertBatch(sch.Tag, bad, nil); err == nil {
		t.Error("short record accepted")
	}
	// Empty batch completes immediately.
	called := false
	if err := c.Nodes[0].InsertBatch(sch.Tag, nil, func(rs []mind.InsertResult) {
		called = true
		if rs != nil {
			t.Errorf("empty batch results = %v", rs)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("empty-batch callback did not fire")
	}
	// Fire-and-forget (nil callback) still stores.
	if err := c.Nodes[1].InsertBatch(sch.Tag, []schema.Record{{7, 7, 7, 7}}, nil); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)
	qr, _, err := c.QueryWait(0, sch.Tag, fullRect())
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Records) != 1 {
		t.Fatalf("stored %d records, want 1", len(qr.Records))
	}
}

// insertRecordsSingly drives the records insertRecords would, from the
// same rotating origins, one Insert at a time — the single-message path
// no envelope ever forms on.
func insertRecordsSingly(t *testing.T, c *cluster.Cluster, tag string, seed int64, nrecs, batchSize int) int {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	ok := 0
	for i := 0; i < nrecs; i++ {
		res, _, err := c.InsertWait((i/batchSize)%len(c.Nodes), tag, randRec(r))
		if err != nil {
			t.Fatal(err)
		}
		if res.OK {
			ok++
		}
	}
	return ok
}

// TestBatchingReducesTransportSends runs the same workload through
// InsertBatch (envelope-scoped: every hop forwards, replicates and acks
// one frame per peer) and through per-record Insert, and checks the
// acceptance criterion: fewer transport sends per record, and mean batch
// occupancy > 1 — under the default config, with nothing switched on.
func TestBatchingReducesTransportSends(t *testing.T) {
	const nrecs = 200
	run := func(batch bool) (sends uint64, agg mind.Stats, c *cluster.Cluster) {
		c = mkCluster(t, 16, 7, nil)
		sch := testSchema()
		if err := c.CreateIndex(sch); err != nil {
			t.Fatal(err)
		}
		insert := insertRecordsSingly
		if batch {
			insert = insertRecords
		}
		base := c.Net.Stats().Sent
		if ok := insert(t, c, sch.Tag, 11, nrecs, 32); ok != nrecs {
			t.Fatalf("batch=%v: acked %d/%d", batch, ok, nrecs)
		}
		for _, nd := range c.Nodes {
			s := nd.Stats()
			agg.BatchesSent += s.BatchesSent
			agg.BatchesRecv += s.BatchesRecv
			agg.BatchedMsgs += s.BatchedMsgs
		}
		return c.Net.Stats().Sent - base, agg, c
	}

	plainSends, plainStats, _ := run(false)
	batchSends, batchStats, c := run(true)
	if plainStats.BatchesSent != 0 {
		t.Errorf("the single-message path sent %d envelopes", plainStats.BatchesSent)
	}
	if 2*batchSends >= plainSends {
		t.Errorf("envelope path did not halve transport sends: %d vs %d", batchSends, plainSends)
	}
	if batchStats.BatchesSent == 0 || batchStats.BatchesRecv == 0 {
		t.Fatalf("no envelopes flowed: %+v", batchStats)
	}
	occ := float64(batchStats.BatchedMsgs) / float64(batchStats.BatchesSent)
	if occ <= 1 {
		t.Errorf("mean batch occupancy %.2f, want > 1", occ)
	}
	for _, nd := range c.Nodes {
		if s := nd.Stats(); s.BatchesSent > 0 && (math.IsNaN(s.BatchOccupancy) || s.BatchOccupancy < 1) {
			t.Errorf("node %s occupancy %v with %d batches", nd.Addr(), s.BatchOccupancy, s.BatchesSent)
		}
	}
}

// TestBatchingPreservesQueryResults checks end-to-end equivalence: the
// full query result set and the replica population are identical whether
// the records travelled in envelopes or one by one.
func TestBatchingPreservesQueryResults(t *testing.T) {
	const nrecs = 96
	results := make(map[bool]int)
	replicas := make(map[bool]int)
	for _, batch := range []bool{false, true} {
		c := mkCluster(t, 12, 9, nil)
		sch := testSchema()
		if err := c.CreateIndex(sch); err != nil {
			t.Fatal(err)
		}
		insert := insertRecordsSingly
		if batch {
			insert = insertRecords
		}
		if ok := insert(t, c, sch.Tag, 21, nrecs, 16); ok != nrecs {
			t.Fatalf("batch=%v: acked %d/%d", batch, ok, nrecs)
		}
		c.Settle(3 * time.Second) // drain replication fan-out
		qr, _, err := c.QueryWait(5, sch.Tag, fullRect())
		if err != nil {
			t.Fatal(err)
		}
		if !qr.Complete {
			t.Fatalf("batch=%v: incomplete query", batch)
		}
		results[batch] = len(qr.Records)
		for _, nd := range c.Nodes {
			replicas[batch] += nd.ReplicaRecords(sch.Tag)
		}
	}
	if results[true] != nrecs || results[false] != nrecs {
		t.Errorf("result sets differ: batched=%d plain=%d want %d", results[true], results[false], nrecs)
	}
	if replicas[true] != nrecs || replicas[false] != nrecs {
		t.Errorf("replica populations differ: batched=%d plain=%d want %d", replicas[true], replicas[false], nrecs)
	}
}

// TestEnvelopeLeavesOnReturn pins the scope rule's timing: an envelope
// leaves when the call that filled it returns, never on a timer. Every
// frame of an InsertBatch is on the wire before the clock moves, and the
// acks are back after network latency alone — far inside the first
// retransmission delay, the earliest timer the write path owns.
func TestEnvelopeLeavesOnReturn(t *testing.T) {
	c := mkCluster(t, 8, 17, nil)
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(37))
	recs := make([]schema.Record, 40)
	for i := range recs {
		recs[i] = randRec(r)
	}
	var results []mind.InsertResult
	sentBefore, start := c.Net.Stats().Sent, c.Net.Now()
	if err := c.Nodes[0].InsertBatch(sch.Tag, recs, func(rs []mind.InsertResult) { results = rs }); err != nil {
		t.Fatal(err)
	}
	if c.Net.Now() != start {
		t.Fatal("virtual clock moved inside InsertBatch")
	}
	if c.Net.Stats().Sent == sentBefore {
		t.Fatal("nothing left the origin before the clock moved: 40 records cannot all be local on 8 nodes")
	}
	if !c.Net.RunUntil(func() bool { return results != nil }, 1_000_000) {
		t.Fatal("batch never settled")
	}
	for i, res := range results {
		if !res.OK || res.Attempts != 0 {
			t.Fatalf("record %d: %+v", i, res)
		}
	}
	if took := c.Net.Now().Sub(start); took >= 200*time.Millisecond {
		t.Fatalf("acks took %v of virtual time: something waited on a timer (links are 5ms)", took)
	}
}

// TestInsertBatchSurvivesLoss runs the envelope path at 10% frame loss
// on a 12-node overlay: every record is acked, stored exactly once as
// primary and at most once as a replica (a lost Replicate envelope is
// not retransmitted — a dedup hit does not replicate again), and the
// reliable layer visibly did the work.
func TestInsertBatchSurvivesLoss(t *testing.T) {
	c := mkCluster(t, 12, 23, func(o *cluster.Options) {
		// Eight attempts put the odds of one record losing every
		// multi-hop round trip far below one in a million.
		o.Node.MaxRetries = 8
		o.Node.InsertTimeout = 2 * time.Minute
	})
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	c.Settle(3 * time.Second)
	c.Net.SetLossProb(0.10)
	const nrecs = 384
	if ok := insertRecords(t, c, sch.Tag, 40, nrecs, 64); ok != nrecs {
		t.Fatalf("acked %d/%d batched inserts under loss", ok, nrecs)
	}
	c.Net.SetLossProb(0)
	c.Settle(time.Second)

	var primary, replicas int
	var retransmits, dedup uint64
	for _, nd := range c.Nodes {
		primary += nd.StoredRecords(sch.Tag)
		replicas += nd.ReplicaRecords(sch.Tag)
		st := nd.Stats()
		retransmits += st.Retransmits
		dedup += st.DedupHits
	}
	if primary != nrecs {
		t.Fatalf("%d primary records for %d acked inserts: a retransmission double-stored or an ack lied", primary, nrecs)
	}
	if replicas == 0 || replicas > nrecs {
		t.Fatalf("%d replica records for %d inserts", replicas, nrecs)
	}
	if retransmits == 0 || dedup == 0 {
		t.Fatalf("retransmits=%d dedup hits=%d at 10%% loss: the reliable layer never engaged", retransmits, dedup)
	}
}
