package mind_test

import (
	"math/rand"
	"testing"
	"time"

	"mind/internal/bitstr"
	"mind/internal/cluster"
	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/transport"
	"mind/internal/transport/simnet"
	"mind/internal/wire"
)

// newTestNode attaches a fresh MIND node to a cluster's network.
func newTestNode(ep *simnet.Endpoint, c *cluster.Cluster) *mind.Node {
	return mind.NewNode(ep, c.Net.Clock(), testNodeCfg(555))
}

// Failure-injection tests: the robustness machinery of §3.8 under
// message loss, link cuts and concurrent node failures.

// runLossyInserts drives n inserts through a 10-node cluster at the
// given loss probability and returns the acked count, the deduplicated
// full-rect record count after the run, and the cluster.
func runLossyInserts(t *testing.T, loss float64, n int) (ok, recall int, c *cluster.Cluster) {
	t.Helper()
	// Form the overlay losslessly — the join protocol is exercised by the
	// churn tests — then turn the loss on for the steady-state traffic
	// under test: inserts, acks, retransmissions and queries.
	c = mkCluster(t, 10, 41, func(o *cluster.Options) {
		o.Node.InsertTimeout = 30 * time.Second
	})
	if err := c.CreateIndex(testSchema()); err != nil {
		t.Fatal(err)
	}
	c.Settle(3 * time.Second)
	c.Net.SetLossProb(loss)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		res, _, err := c.InsertWait(i%10, "test-index", randRec(r))
		if err != nil {
			t.Fatal(err)
		}
		if res.OK {
			ok++
		}
	}
	// Recall check, one row per resolver, the loss still on: a full-rect
	// answer counts every distinct stored record — retransmissions must
	// not have double-stored any. Retries make completion likely, but
	// under loss a single try can still time out, so each resolver gets a
	// few and one of them must complete. A complete answer the originator
	// did not have to retransmit for (the overlapping-answer caveat of
	// AggResult.Retried) counts exactly what the nodes store.
	for _, kind := range gatherKinds {
		best, complete := 0, false
		for i := 0; i < 3 && !complete; i++ {
			g, err := kind.run(c, i, "test-index", fullRect())
			if err != nil {
				t.Fatal(err)
			}
			if g.count > best {
				best = g.count
			}
			complete = g.complete
			if want := bruteCount(c, "test-index", fullRect()); g.complete && !g.retried && g.count != want {
				t.Errorf("%s: complete full-rect answer counts %d, nodes store %d", kind.name, g.count, want)
			}
		}
		if !complete {
			t.Errorf("%s: no complete full-rect answer in 3 tries at %.0f%% loss", kind.name, loss*100)
		}
		if kind.name == "record" {
			recall = best
		}
	}
	return ok, recall, c
}

func TestInsertsSurviveMessageLoss(t *testing.T) {
	n := 150
	ok, recall, _ := runLossyInserts(t, 0.03, n)
	// With end-to-end retransmission (4 retries, exponential backoff)
	// the odds of an insert failing all 5 attempts at 3% per-message
	// loss over ~5 messages per attempt are well under 1e-3: effectively
	// every insert must ack inside InsertTimeout.
	if float64(ok) < 0.99*float64(n) {
		t.Fatalf("only %d/%d inserts acked under 3%% loss", ok, n)
	}
	if recall > n {
		t.Fatalf("duplicate stored records: full-rect recall %d from %d inserts", recall, n)
	}
	if recall < ok {
		t.Fatalf("acked inserts missing: recall %d < %d acked", recall, ok)
	}
}

func TestInsertsSurviveHeavyMessageLoss(t *testing.T) {
	// Companion at 10% loss: each attempt's ~5-message path now fails
	// ~2 times in 5, but five attempts drive the residual below 1%;
	// the ≥95% floor leaves margin for unlucky seeds and dead-end detours.
	n := 150
	ok, recall, _ := runLossyInserts(t, 0.10, n)
	if float64(ok) < 0.95*float64(n) {
		t.Fatalf("only %d/%d inserts acked under 10%% loss", ok, n)
	}
	if recall > n {
		t.Fatalf("duplicate stored records: full-rect recall %d from %d inserts", recall, n)
	}
}

// TestRetransmissionDeterministic replays the lossy scenario twice with
// identical seeds: the virtual clock, the seeded per-node RNGs (backoff
// jitter included) and the seeded simulator must produce bit-identical
// retransmission schedules — same acked count, same total Retransmits.
func TestRetransmissionDeterministic(t *testing.T) {
	run := func() (ok int, retransmits, dedup uint64) {
		var c *cluster.Cluster
		ok, _, c = runLossyInserts(t, 0.05, 80)
		for _, nd := range c.Nodes {
			st := nd.Stats()
			retransmits += st.Retransmits
			dedup += st.DedupHits
		}
		return
	}
	ok1, rt1, dd1 := run()
	ok2, rt2, dd2 := run()
	if ok1 != ok2 || rt1 != rt2 || dd1 != dd2 {
		t.Fatalf("same seed diverged: acked %d vs %d, retransmits %d vs %d, dedup hits %d vs %d",
			ok1, ok2, rt1, rt2, dd1, dd2)
	}
	if rt1 == 0 {
		t.Fatal("no retransmissions at 5% loss: reliable layer inactive")
	}
}

// TestRetryExhaustion covers the one place exhaustion is decided
// (retrySchedule.advanceLocked) through each of its users: an operation
// whose first hop silently drops everything retransmits MaxRetries times,
// then feeds that hop to the overlay's suspicion machinery and is left to
// its timeout; an un-ackable histogram report is dropped instead. Two
// nodes, so the dead owner is the only exit an attempt can leave through,
// and failure detection too slow to suspect it first.
func TestRetryExhaustion(t *testing.T) {
	const maxRetries = 3
	boot := func(t *testing.T) (c *cluster.Cluster, origin, victim int, local []schema.Record, remote schema.Record) {
		c = mkCluster(t, 2, 57, func(o *cluster.Options) {
			o.Node.Replication = 0
			o.Node.Overlay.FailAfter = 10 * time.Minute
			// The last check falls ≈ 6–7 s in, well inside the 20 s timeouts.
			o.Node.RetryBase = 500 * time.Millisecond
			o.Node.RetryMax = 2 * time.Second
			o.Node.MaxRetries = maxRetries
		})
		if err := c.CreateIndex(testSchema()); err != nil {
			t.Fatal(err)
		}
		c.Settle(2 * time.Second)
		// The victim owns the all-zero corner, where histogram reports go.
		if origin, victim = 0, 1; c.Nodes[0].Overlay().Owns(bitstr.New(0, 24)) {
			origin, victim = 1, 0
		}
		r := rand.New(rand.NewSource(58))
		for len(local) < 3 || remote == nil {
			rec := randRec(r)
			res, _, err := c.InsertWait(origin, "test-index", rec)
			if err != nil || !res.OK {
				t.Fatalf("insert: %v %+v", err, res)
			}
			if res.StoredAt == c.Nodes[victim].Addr() {
				remote = rec
			} else {
				local = append(local, rec)
			}
		}
		c.Kill(victim)
		return
	}
	// suspected reports whether origin's overlay holds the victim under
	// suspicion: suspended from routing with a probe out, or already evicted.
	suspected := func(c *cluster.Cluster, origin, victim int) bool {
		for _, ct := range c.Nodes[origin].Overlay().Snapshot().Contacts {
			if ct.Addr == c.Nodes[victim].Addr() {
				return ct.Probing || ct.Unreachable
			}
		}
		return true
	}

	for _, row := range []struct {
		name    string
		timeout func(mind.Config) time.Duration
		// start issues the operation from n; failed reports, once it has
		// settled, whether it settled as a failure.
		start func(n *mind.Node, local []schema.Record, remote schema.Record) (settled, failed func() bool, err error)
	}{
		{"insert", func(c mind.Config) time.Duration { return c.InsertTimeout },
			func(n *mind.Node, _ []schema.Record, remote schema.Record) (func() bool, func() bool, error) {
				var res *mind.InsertResult
				err := n.Insert("test-index", remote, func(r mind.InsertResult) { res = &r })
				return func() bool { return res != nil }, func() bool { return !res.OK && res.Err != nil && res.Attempts == maxRetries }, err
			}},
		{"batch member", func(c mind.Config) time.Duration { return c.InsertTimeout },
			func(n *mind.Node, local []schema.Record, remote schema.Record) (func() bool, func() bool, error) {
				var res []mind.InsertResult
				err := n.InsertBatch("test-index", append(local[:2:2], remote, local[2]), func(rs []mind.InsertResult) { res = rs })
				return func() bool { return res != nil }, func() bool {
					return res[0].OK && res[1].OK && res[3].OK && !res[2].OK && res[2].Err != nil && res[2].Attempts == maxRetries
				}, err
			}},
		{"query region", func(c mind.Config) time.Duration { return c.QueryTimeout },
			func(n *mind.Node, _ []schema.Record, _ schema.Record) (func() bool, func() bool, error) {
				var res *mind.QueryResult
				err := n.Query("test-index", fullRect(), func(r mind.QueryResult) { res = &r })
				return func() bool { return res != nil }, func() bool { return !res.Complete && len(res.Uncovered) > 0 }, err
			}},
		{"aggregate region", func(c mind.Config) time.Duration { return c.QueryTimeout },
			func(n *mind.Node, _ []schema.Record, _ schema.Record) (func() bool, func() bool, error) {
				var res *mind.AggResult
				err := n.Agg("test-index", fullRect(), 0, func(r mind.AggResult) { res = &r })
				return func() bool { return res != nil }, func() bool { return !res.Complete && res.Retried }, err
			}},
	} {
		t.Run(row.name, func(t *testing.T) {
			c, origin, victim, local, remote := boot(t)
			n := c.Nodes[origin]
			if suspected(c, origin, victim) {
				t.Fatal("victim suspected before the operation started")
			}
			start := c.Net.Now()
			settled, failed, err := row.start(n, local, remote)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Net.RunUntil(func() bool { return settled() || suspected(c, origin, victim) }, 50_000_000) || settled() {
				t.Fatalf("operation settled (%v) before its retries fed the first hop to the overlay", settled())
			}
			// The budget was spent first, and nothing is retransmitted after.
			spent := n.Stats().Retransmits
			if spent < maxRetries {
				t.Fatalf("first hop suspected after %d retransmissions, want the budget of %d spent", spent, maxRetries)
			}
			if !c.Net.RunUntil(settled, 50_000_000) {
				t.Fatal("operation never settled")
			}
			if took, want := c.Net.Now().Sub(start), row.timeout(testNodeCfg(0)); !failed() || took != want {
				t.Fatalf("settled after %v (failed as expected: %v), want left to its %v timeout", took, failed(), want)
			}
			if got := n.Stats().Retransmits; got != spent {
				t.Fatalf("%d retransmissions after exhaustion", got-spent)
			}
		})
	}

	t.Run("histogram report", func(t *testing.T) {
		c, origin, victim, _, _ := boot(t)
		n := c.Nodes[origin]
		if err := n.ReportHistogram("test-index", 0, 4); err != nil {
			t.Fatal(err)
		}
		if n.PendingReports() != 1 {
			t.Fatalf("%d reports tracked after ReportHistogram, want 1", n.PendingReports())
		}
		c.Net.RunFor(20 * time.Second)
		if st := n.Stats(); n.PendingReports() != 0 || st.Retransmits != maxRetries {
			t.Fatalf("%d reports still tracked after %d retransmissions, want the op dropped after %d", n.PendingReports(), st.Retransmits, maxRetries)
		}
		// Giving up on a report is nobody's fault in particular.
		if suspected(c, origin, victim) {
			t.Fatal("a dropped report suspected its first hop")
		}
	})

	// Exhaustion suspects only the hops of regions still missing: a region
	// that answered after a retransmission clears its hop.
	t.Run("answered region", func(t *testing.T) {
		c := mkCluster(t, 3, 59, func(o *cluster.Options) {
			o.Node.Replication = 0
			o.Node.Overlay.FailAfter = 10 * time.Minute
			o.Node.RetryBase = 500 * time.Millisecond
			o.Node.RetryMax = 2 * time.Second
			o.Node.MaxRetries = maxRetries
		})
		if err := c.CreateIndex(testSchema()); err != nil {
			t.Fatal(err)
		}
		c.Settle(2 * time.Second)
		// Two nodes split one half of the space, the third holds the other
		// half alone: the origin reaches its sibling's region only through
		// the sibling and the lone node's only through that node.
		origin, answered, silent := -1, -1, -1
		for i, n := range c.Nodes {
			switch {
			case n.Code().Len() == 1:
				silent = i
			case origin < 0:
				origin = i
			default:
				answered = i
			}
		}
		if silent < 0 || answered < 0 {
			t.Fatalf("codes %v %v %v, want one node at depth 1", c.Nodes[0].Code(), c.Nodes[1].Code(), c.Nodes[2].Code())
		}
		c.Kill(silent)
		// The sibling misses the first attempt and answers the first
		// retransmission.
		c.Net.Outage(c.Nodes[origin].Addr(), c.Nodes[answered].Addr(), 200*time.Millisecond)
		var res *mind.QueryResult
		if err := c.Nodes[origin].Query("test-index", fullRect(), func(r mind.QueryResult) { res = &r }); err != nil {
			t.Fatal(err)
		}
		if !c.Net.RunUntil(func() bool { return res != nil || suspected(c, origin, silent) }, 50_000_000) || res != nil {
			t.Fatal("query settled before its retries fed the silent hop to the overlay")
		}
		if suspected(c, origin, answered) {
			t.Fatal("exhaustion suspected the hop of a region that answered")
		}
		if !c.Net.RunUntil(func() bool { return res != nil }, 50_000_000) {
			t.Fatal("query never settled")
		}
		if res.Complete || res.Responders != 2 {
			t.Fatalf("complete %v with %d responders, want the origin and its sibling only", res.Complete, res.Responders)
		}
	})
}

func TestQueriesCompleteAfterLinkCut(t *testing.T) {
	c := mkCluster(t, 8, 43, nil)
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	c.Settle(3 * time.Second)
	r := rand.New(rand.NewSource(44))
	for i := 0; i < 100; i++ {
		res, _, _ := c.InsertWait(i%8, "test-index", randRec(r))
		if !res.OK {
			t.Fatal("insert failed")
		}
	}
	// Cut two transit links toward node 1 (but none adjacent to the
	// query originator — responders answer the originator directly, so
	// a cut originator link would block responses by design, the §4.2
	// pathology). Greedy routes through the cut links black-hole until
	// unreachability detection; afterwards routing must flow around via
	// other contacts or a dead-end detour.
	origin := 5
	c.Net.CutLink(c.Nodes[0].Addr(), c.Nodes[1].Addr())
	c.Net.CutLink(c.Nodes[2].Addr(), c.Nodes[1].Addr())
	// Let unreachability detection mark the cut links.
	c.Settle(8 * time.Second)
	for _, kind := range gatherKinds {
		t.Run(kind.name, func(t *testing.T) {
			ok := 0
			for i := 0; i < 10; i++ {
				g, err := kind.run(c, origin, "test-index", fullRect())
				if err != nil {
					t.Fatal(err)
				}
				if g.complete && g.count == 100 {
					ok++
				}
				if want := bruteCount(c, "test-index", fullRect()); g.complete && !g.retried && g.count != want {
					t.Errorf("try %d: complete answer counts %d, nodes store %d", i, g.count, want)
				}
			}
			if ok < 8 {
				t.Fatalf("only %d/10 full-recall answers with two links cut", ok)
			}
		})
	}
}

func TestConcurrentSiblingFailureLosesOnlyUnreplicated(t *testing.T) {
	// Kill a node AND its replica holder simultaneously: with m=1 that
	// data is gone; the rest must still be answerable once timeouts and
	// takeovers settle.
	c := mkCluster(t, 12, 45, func(o *cluster.Options) {
		o.Node.Replication = 1
		o.Node.QueryTimeout = 8 * time.Second
	})
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	c.Settle(3 * time.Second)
	r := rand.New(rand.NewSource(46))
	n := 240
	for i := 0; i < n; i++ {
		res, _, _ := c.InsertWait(i%12, "test-index", randRec(r))
		if !res.OK {
			t.Fatal("insert failed")
		}
	}
	// Find a sibling pair (codes differing in the last bit).
	var a, b = -1, -1
	for i := range c.Nodes {
		for j := range c.Nodes {
			if i != j && c.Nodes[i].Code().Sibling().Equal(c.Nodes[j].Code()) {
				a, b = i, j
			}
		}
	}
	if a < 0 {
		// Node codes are a prefix-free cover of the code space, so the
		// deepest code's sibling is always a leaf too.
		t.Fatal("no exact sibling pair: the overlay's codes do not tile the code space")
	}
	lost := c.Nodes[a].StoredRecords("test-index") + c.Nodes[b].StoredRecords("test-index")
	c.Kill(a)
	c.Kill(b)
	c.Settle(30 * time.Second)

	qr, _, err := c.QueryWait((a+1)%12, "test-index", fullRect())
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Records) < n-lost {
		t.Fatalf("recall %d, want at least %d (only the dead pair's %d records may vanish)",
			len(qr.Records), n-lost, lost)
	}
	if len(qr.Records) > n {
		t.Fatalf("duplicates: %d records from %d inserts", len(qr.Records), n)
	}
}

func TestChurnJoinDuringInserts(t *testing.T) {
	// Nodes joining while inserts stream must not lose records.
	c := mkCluster(t, 4, 47, nil)
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)
	r := rand.New(rand.NewSource(48))
	total := 0
	insertBatch := func(k int) {
		for i := 0; i < k; i++ {
			res, _, _ := c.InsertWait(i%len(c.Nodes), "test-index", randRec(r))
			if res.OK {
				total++
			}
		}
	}
	insertBatch(60)
	// Two staggered joins with inserts in between.
	for j := 0; j < 2; j++ {
		ep, err := c.Net.Endpoint(map[int]string{0: "late-a", 1: "late-b"}[j])
		if err != nil {
			t.Fatal(err)
		}
		nd := newTestNode(ep, c)
		nd.Join(c.Nodes[0].Addr())
		if !c.Net.RunUntil(nd.Joined, 10_000_000) {
			t.Fatal("late join stuck")
		}
		insertBatch(40)
	}
	c.Settle(3 * time.Second)
	qr, _, err := c.QueryWait(1, "test-index", fullRect())
	if err != nil || !qr.Complete {
		t.Fatalf("query: %v %+v", err, qr)
	}
	if len(qr.Records) != total {
		t.Fatalf("recall %d/%d across mid-stream joins", len(qr.Records), total)
	}
}

// lossyInbox wraps an originator's endpoint and swallows the first
// covering answer addressed to it — to the originator, loss in transit.
type lossyInbox struct {
	transport.Endpoint
	covering int // covering answers that arrived, the swallowed one included
}

func (e *lossyInbox) SetHandler(h transport.Handler) {
	e.Endpoint.SetHandler(func(from string, msg []byte) {
		covering := false
		switch m, _ := wire.Decode(msg); m := m.(type) {
		case *wire.QueryResp:
			covering = m.HasCover
		case *wire.AggResp:
			covering = m.HasCover
		}
		if covering {
			if e.covering++; e.covering == 1 {
				return
			}
		}
		h(from, msg)
	})
}

// TestOutOfBoundQueryEdgeRetransmits: a rectangle with an edge beyond a
// schema bound is answered as if the edge sat on the bound, by every
// region that touches it. When one of those answers is lost the
// originator must re-ask exactly that region: the walk that says "not
// complete" and the walk that lists what to re-ask see the same clamped
// rectangle. (Kept apart, one clamped and one did not: the op was
// incomplete with nothing to re-ask and sat out its QueryTimeout.)
func TestOutOfBoundQueryEdgeRetransmits(t *testing.T) {
	for _, kind := range gatherKinds {
		t.Run(kind.name, func(t *testing.T) {
			c := mkCluster(t, 8, 61, nil)
			ep, err := c.Net.Endpoint("lossy-origin")
			if err != nil {
				t.Fatal(err)
			}
			inbox := &lossyInbox{Endpoint: ep}
			nd := mind.NewNode(inbox, c.Net.Clock(), testNodeCfg(556))
			t.Cleanup(nd.Close)
			nd.Join(c.Nodes[0].Addr())
			if !c.Net.RunUntil(nd.Joined, 10_000_000) {
				t.Fatal("originator never joined")
			}
			c.Nodes = append(c.Nodes, nd)
			origin := len(c.Nodes) - 1
			if err := c.CreateIndex(testSchema()); err != nil {
				t.Fatal(err)
			}
			c.Settle(3 * time.Second)

			// x lies wholly beyond its bound of 9999; y spans every cut, so
			// several regions answer.
			rect := schema.Rect{Lo: []uint64{20000, 0, 0}, Hi: []uint64{30000, 3599, 9999}}
			g, err := kind.run(c, origin, "test-index", rect)
			if err != nil {
				t.Fatal(err)
			}
			if inbox.covering < 2 {
				t.Fatalf("scenario needs one lost answer and a second region's answer: %d covering answers arrived", inbox.covering)
			}
			if !g.complete {
				t.Fatalf("incomplete after a single lost answer (uncovered: %v)", g.uncovered)
			}
			if st := nd.Stats(); st.Retransmits == 0 {
				t.Fatal("completed without re-asking the region whose answer was lost")
			}
		})
	}
}
