package mind_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mind/internal/cluster"
	"mind/internal/embed"
	"mind/internal/histogram"
	"mind/internal/hypercube"
	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/summary"
	"mind/internal/topo"
	"mind/internal/transport/simnet"
)

func fastOverlay() hypercube.Config {
	c := hypercube.DefaultConfig()
	c.HeartbeatInterval = 500 * time.Millisecond
	c.FailAfter = 1800 * time.Millisecond
	c.JoinTimeout = time.Second
	c.JoinRetryBackoff = 200 * time.Millisecond
	c.PrepareTimeout = time.Second
	return c
}

func testNodeCfg(seed int64) mind.Config {
	c := mind.DefaultConfig(seed)
	c.Overlay = fastOverlay()
	c.InsertTimeout = 20 * time.Second
	c.QueryTimeout = 20 * time.Second
	c.VersionSeconds = 3600 // hourly versions keep tests small
	return c
}

func testSchema() *schema.Schema {
	return &schema.Schema{
		Tag: "test-index",
		Attrs: []schema.Attr{
			{Name: "x", Kind: schema.KindUint, Max: 9999},
			{Name: "t", Kind: schema.KindTime, Max: 86400},
			{Name: "y", Kind: schema.KindUint, Max: 9999},
			{Name: "payload"},
		},
		IndexDims: 3,
	}
}

func mkCluster(t *testing.T, n int, seed int64, mut func(*cluster.Options)) *cluster.Cluster {
	t.Helper()
	opts := cluster.Options{
		N:    n,
		Seed: seed,
		Sim:  simnet.Config{Seed: seed, DefaultLatency: 5 * time.Millisecond},
		Node: testNodeCfg(seed),
	}
	if mut != nil {
		mut(&opts)
	}
	c, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func fullRect() schema.Rect {
	return schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{9999, 86400, 9999}}
}

func randRec(r *rand.Rand) schema.Record {
	return schema.Record{r.Uint64() % 10000, r.Uint64() % 86401, r.Uint64() % 10000, r.Uint64()}
}

// gathered is the kind-independent view of one scatter-gather answer.
type gathered struct {
	complete  bool
	retried   bool // the originator retransmitted (aggregates report it)
	count     int  // matching records: returned (record) or counted (aggregate)
	uncovered []string
	records   []schema.Record // record row only
	topK      []summary.Entry // aggregate row only, with floor
	floor     uint64
}

// gatherKinds are the two resolvers of the scatter-gather engine as
// table rows: failure-path tests run every row through the same
// scenario instead of keeping an aggregate copy of each record test.
var gatherKinds = []struct {
	name string
	run  func(c *cluster.Cluster, origin int, tag string, rect schema.Rect) (gathered, error)
}{
	{"record", func(c *cluster.Cluster, origin int, tag string, rect schema.Rect) (gathered, error) {
		qr, _, err := c.QueryWait(origin, tag, rect)
		return gathered{complete: qr.Complete, count: len(qr.Records), uncovered: qr.Uncovered, records: qr.Records}, err
	}},
	{"aggregate", func(c *cluster.Cluster, origin int, tag string, rect schema.Rect) (gathered, error) {
		ar, _, err := c.AggWait(origin, tag, rect, 0)
		return gathered{
			complete: ar.Complete, retried: ar.Retried, count: int(ar.Count), uncovered: ar.Uncovered,
			topK: ar.TopK, floor: ar.Floor,
		}, err
	}},
}

// bruteCount is the reference both resolvers answer to: the distinct
// records inside rect held as primary by any live node.
func bruteCount(c *cluster.Cluster, tag string, rect schema.Rect) int {
	seen := make(map[string]bool)
	for _, i := range c.LiveIndices() {
		for _, rec := range c.Nodes[i].LocalQuery(tag, rect) {
			seen[fmt.Sprint(rec)] = true
		}
	}
	return len(seen)
}

// gatherComplete runs rect through every resolver from origin, one
// subtest each, and requires a complete answer. The results come back in
// gatherKinds order for the caller's scenario-specific assertions.
func gatherComplete(t *testing.T, c *cluster.Cluster, origin int, tag string, rect schema.Rect) []gathered {
	t.Helper()
	out := make([]gathered, len(gatherKinds))
	for i, kind := range gatherKinds {
		t.Run(kind.name, func(t *testing.T) {
			g, err := kind.run(c, origin, tag, rect)
			if err != nil {
				t.Fatal(err)
			}
			if !g.complete {
				t.Fatalf("incomplete (uncovered: %v)", g.uncovered)
			}
			out[i] = g
		})
	}
	return out
}

func TestCreateIndexPropagates(t *testing.T) {
	c := mkCluster(t, 8, 1, nil)
	if err := c.CreateIndex(testSchema()); err != nil {
		t.Fatal(err)
	}
	for _, nd := range c.Nodes {
		if !nd.HasIndex("test-index") {
			t.Fatalf("%s missing index", nd.Addr())
		}
	}
	// Duplicate creation rejected locally.
	if err := c.Nodes[0].CreateIndex(testSchema(), nil); err == nil {
		t.Error("duplicate index accepted")
	}
	// Unknown index operations error.
	if err := c.Nodes[0].Insert("nope", schema.Record{1, 2, 3, 4}, nil); err == nil {
		t.Error("insert into unknown index accepted")
	}
	if err := c.Nodes[0].Query("nope", fullRect(), nil); err == nil {
		t.Error("query of unknown index accepted")
	}
}

func TestDropIndexPropagates(t *testing.T) {
	c := mkCluster(t, 6, 2, nil)
	if err := c.CreateIndex(testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := c.Nodes[3].DropIndex("test-index"); err != nil {
		t.Fatal(err)
	}
	ok := c.Net.RunUntil(func() bool {
		for _, nd := range c.Nodes {
			if nd.HasIndex("test-index") {
				return false
			}
		}
		return true
	}, 1_000_000)
	if !ok {
		t.Fatal("drop did not propagate")
	}
	if err := c.Nodes[0].DropIndex("test-index"); err == nil {
		t.Error("double drop accepted")
	}
}

func TestInsertAndQuerySingleNode(t *testing.T) {
	c := mkCluster(t, 1, 3, nil)
	if err := c.CreateIndex(testSchema()); err != nil {
		t.Fatal(err)
	}
	res, _, err := c.InsertWait(0, "test-index", schema.Record{10, 100, 10, 42})
	if err != nil || !res.OK {
		t.Fatalf("insert: %v %+v", err, res)
	}
	qr, _, err := c.QueryWait(0, "test-index", fullRect())
	if err != nil || !qr.Complete || len(qr.Records) != 1 {
		t.Fatalf("query: %v %+v", err, qr)
	}
	if qr.Records[0][3] != 42 {
		t.Fatal("payload lost")
	}
}

func TestInsertRoutesToOwner(t *testing.T) {
	c := mkCluster(t, 16, 4, nil)
	if err := c.CreateIndex(testSchema()); err != nil {
		t.Fatal(err)
	}
	c.Settle(3 * time.Second)
	r := rand.New(rand.NewSource(5))
	stored := 0
	for i := 0; i < 200; i++ {
		rec := randRec(r)
		res, _, err := c.InsertWait(i%16, "test-index", rec)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("insert %d failed", i)
		}
		stored++
	}
	// Every record stored exactly once across the cluster.
	total := 0
	for _, nd := range c.Nodes {
		total += nd.StoredRecords("test-index")
	}
	if total != stored {
		t.Fatalf("stored %d records across nodes, want %d", total, stored)
	}
	// Each record must live at the node owning its point code: spot
	// check locality through targeted point queries.
	for i := 0; i < 20; i++ {
		rec := randRec(r)
		res, _, _ := c.InsertWait(0, "test-index", rec)
		if !res.OK {
			t.Fatal("insert failed")
		}
		q := schema.Rect{
			Lo: []uint64{rec[0], rec[1], rec[2]},
			Hi: []uint64{rec[0], rec[1], rec[2]},
		}
		qr, _, _ := c.QueryWait(i%16, "test-index", q)
		if !qr.Complete {
			t.Fatalf("point query incomplete")
		}
		found := false
		for _, got := range qr.Records {
			if got[3] == rec[3] {
				found = true
			}
		}
		if !found {
			t.Fatalf("point query missed record %v", rec)
		}
	}
}

func TestRangeQueryMatchesOracle(t *testing.T) {
	c := mkCluster(t, 12, 6, nil)
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	c.Settle(3 * time.Second)
	r := rand.New(rand.NewSource(7))
	var all []schema.Record
	for i := 0; i < 300; i++ {
		rec := randRec(r)
		all = append(all, rec)
		res, _, err := c.InsertWait(i%12, "test-index", rec)
		if err != nil || !res.OK {
			t.Fatalf("insert %d: %v %+v", i, err, res)
		}
	}
	for trial := 0; trial < 25; trial++ {
		q := schema.Rect{Lo: make([]uint64, 3), Hi: make([]uint64, 3)}
		bounds := []uint64{9999, 86400, 9999}
		for d := 0; d < 3; d++ {
			a, b := r.Uint64()%(bounds[d]+1), r.Uint64()%(bounds[d]+1)
			if a > b {
				a, b = b, a
			}
			q.Lo[d], q.Hi[d] = a, b
		}
		want := 0
		for _, rec := range all {
			if q.ContainsRecord(sch, rec) {
				want++
			}
		}
		qr, _, err := c.QueryWait(trial%12, "test-index", q)
		if err != nil {
			t.Fatal(err)
		}
		if !qr.Complete {
			t.Fatalf("query %d incomplete (%d responders)", trial, qr.Responders)
		}
		if len(qr.Records) != want {
			t.Fatalf("query %d: got %d records, oracle says %d", trial, len(qr.Records), want)
		}
	}
}

func TestNegativeQueryCompletes(t *testing.T) {
	c := mkCluster(t, 8, 8, nil)
	if err := c.CreateIndex(testSchema()); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)
	qr, _, err := c.QueryWait(3, "test-index", fullRect())
	if err != nil || !qr.Complete {
		t.Fatalf("empty-index query: %v %+v", err, qr)
	}
	if len(qr.Records) != 0 {
		t.Fatal("phantom records")
	}
}

func TestQueryLocality(t *testing.T) {
	// Small queries should touch few nodes (Fig 9's shape).
	c := mkCluster(t, 16, 9, nil)
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	c.Settle(3 * time.Second)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		res, _, _ := c.InsertWait(i%16, "test-index", randRec(r))
		if !res.OK {
			t.Fatal("insert failed")
		}
	}
	smallTouches, fullTouches := 0, 0
	trials := 10
	for i := 0; i < trials; i++ {
		base := randRec(r)
		q := schema.Rect{
			Lo: []uint64{base[0], 0, base[2]},
			Hi: []uint64{base[0] + 50, 86400, base[2] + 50},
		}
		if q.Hi[0] > 9999 {
			q.Hi[0] = 9999
		}
		if q.Hi[2] > 9999 {
			q.Hi[2] = 9999
		}
		qr, _, _ := c.QueryWait(i%16, "test-index", q)
		if !qr.Complete {
			t.Fatal("small query incomplete")
		}
		smallTouches += qr.Responders
		qr2, _, _ := c.QueryWait(i%16, "test-index", fullRect())
		if !qr2.Complete {
			t.Fatal("full query incomplete")
		}
		fullTouches += qr2.Responders
	}
	if smallTouches >= fullTouches {
		t.Errorf("locality broken: small queries touched %d nodes vs %d for full scans", smallTouches, fullTouches)
	}
	if float64(smallTouches)/float64(trials) > 6 {
		t.Errorf("small queries touch %.1f nodes on average", float64(smallTouches)/float64(trials))
	}
}

func TestReplicationAndFailover(t *testing.T) {
	c := mkCluster(t, 10, 12, func(o *cluster.Options) {
		o.Node.Replication = 1
	})
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	c.Settle(3 * time.Second)
	r := rand.New(rand.NewSource(13))
	var all []schema.Record
	for i := 0; i < 200; i++ {
		rec := randRec(r)
		all = append(all, rec)
		res, _, _ := c.InsertWait(i%10, "test-index", rec)
		if !res.OK {
			t.Fatal("insert failed")
		}
	}
	// Replicas exist.
	reps := 0
	for _, nd := range c.Nodes {
		reps += nd.ReplicaRecords("test-index")
	}
	if reps < 150 {
		t.Fatalf("replica records = %d, want ≈200", reps)
	}
	// Kill one node; wait for failure detection; queries must still be
	// complete and return everything.
	c.Kill(4)
	c.Settle(15 * time.Second)
	qr, _, err := c.QueryWait(0, "test-index", fullRect())
	if err != nil {
		t.Fatal(err)
	}
	if !qr.Complete {
		t.Fatalf("query incomplete after single failure with replication")
	}
	if len(qr.Records) != len(all) {
		t.Fatalf("recall %d/%d after failure", len(qr.Records), len(all))
	}
}

func TestNoReplicationLosesDataOnFailure(t *testing.T) {
	c := mkCluster(t, 10, 14, func(o *cluster.Options) {
		o.Node.Replication = 0
		o.Node.QueryTimeout = 5 * time.Second
	})
	if err := c.CreateIndex(testSchema()); err != nil {
		t.Fatal(err)
	}
	c.Settle(3 * time.Second)
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 200; i++ {
		res, _, _ := c.InsertWait(i%10, "test-index", randRec(r))
		if !res.OK {
			t.Fatal("insert failed")
		}
	}
	// The victim is the node, other than the entry node the query below
	// goes through, that stored the most.
	victim, lost := 0, 0
	for i := 1; i < len(c.Nodes); i++ {
		if stored := c.Nodes[i].StoredRecords("test-index"); stored > lost {
			victim, lost = i, stored
		}
	}
	if lost == 0 {
		t.Fatal("200 inserts over 10 nodes and only the entry node stored any")
	}
	c.Kill(victim)
	c.Settle(15 * time.Second)
	qr, _, _ := c.QueryWait(0, "test-index", fullRect())
	if len(qr.Records) != 200-lost {
		t.Fatalf("got %d records, want %d after losing %d unreplicated", len(qr.Records), 200-lost, lost)
	}
}

func TestJoinAfterDataHistoryPointer(t *testing.T) {
	// Insert data into a small overlay, then join a new node. Pre-split
	// data stays at the sibling; queries through the joiner must still
	// return it via the history pointer (§3.4).
	c := mkCluster(t, 4, 16, nil)
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 150; i++ {
		res, _, _ := c.InsertWait(i%4, "test-index", randRec(r))
		if !res.OK {
			t.Fatal("insert failed")
		}
	}
	// Join a fifth node.
	ep, err := c.Net.Endpoint("joiner")
	if err != nil {
		t.Fatal(err)
	}
	joiner := mind.NewNode(ep, c.Net.Clock(), testNodeCfg(999))
	joiner.Join(c.Nodes[0].Addr())
	if !c.Net.RunUntil(joiner.Joined, 5_000_000) {
		t.Fatal("joiner did not join")
	}
	if !joiner.HasIndex("test-index") {
		t.Fatal("joiner did not receive index definitions")
	}
	c.Settle(2 * time.Second)

	// Full query still returns all 150 records.
	var qres *mind.QueryResult
	err = c.Nodes[1].Query("test-index", fullRect(), func(qr mind.QueryResult) { qres = &qr })
	if err != nil {
		t.Fatal(err)
	}
	c.Net.RunUntil(func() bool { return qres != nil }, 10_000_000)
	if qres == nil || !qres.Complete {
		t.Fatal("post-join query incomplete")
	}
	if len(qres.Records) != 150 {
		t.Fatalf("post-join recall %d/150 (history pointer broken)", len(qres.Records))
	}
}

func TestTransferOnSplitAblation(t *testing.T) {
	c := mkCluster(t, 4, 18, func(o *cluster.Options) {
		o.Node.TransferOnSplit = true
	})
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 100; i++ {
		res, _, _ := c.InsertWait(i%4, "test-index", randRec(r))
		if !res.OK {
			t.Fatal("insert failed")
		}
	}
	ep, _ := c.Net.Endpoint("joiner")
	cfg := testNodeCfg(998)
	cfg.TransferOnSplit = true
	joiner := mind.NewNode(ep, c.Net.Clock(), cfg)
	joiner.Join(c.Nodes[0].Addr())
	if !c.Net.RunUntil(joiner.Joined, 5_000_000) {
		t.Fatal("joiner did not join")
	}
	c.Settle(3 * time.Second)
	var qres *mind.QueryResult
	if err := c.Nodes[2].Query("test-index", fullRect(), func(qr mind.QueryResult) { qres = &qr }); err != nil {
		t.Fatal(err)
	}
	c.Net.RunUntil(func() bool { return qres != nil }, 10_000_000)
	if qres == nil || !qres.Complete || len(qres.Records) != 100 {
		t.Fatalf("transfer-mode recall: %+v", qres)
	}
}

func TestVersionedQueriesSpanVersions(t *testing.T) {
	c := mkCluster(t, 6, 20, nil) // VersionSeconds = 3600
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)
	// Records in three different hourly versions.
	recs := []schema.Record{
		{100, 600, 100, 1},  // version 0
		{100, 4200, 100, 2}, // version 1
		{100, 8000, 100, 3}, // version 2
	}
	for i, rec := range recs {
		res, _, _ := c.InsertWait(i%6, "test-index", rec)
		if !res.OK {
			t.Fatal("insert failed")
		}
	}
	// Query the middle hour only.
	q := schema.Rect{Lo: []uint64{0, 3600, 0}, Hi: []uint64{9999, 7199, 9999}}
	qr, _, _ := c.QueryWait(0, "test-index", q)
	if !qr.Complete || len(qr.Records) != 1 || qr.Records[0][3] != 2 {
		t.Fatalf("single-version query: %+v", qr)
	}
	// Query spanning all three versions.
	q2 := schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{9999, 9000, 9999}}
	qr2, _, _ := c.QueryWait(1, "test-index", q2)
	if !qr2.Complete || len(qr2.Records) != 3 {
		t.Fatalf("multi-version query: %+v", qr2)
	}
}

func TestRebalanceInstallsCuts(t *testing.T) {
	c := mkCluster(t, 8, 22, func(o *cluster.Options) {
		o.Node.HistCollectWait = 2 * time.Second
	})
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)
	// Skewed inserts: everything in one corner, all in version 0.
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		rec := schema.Record{r.Uint64() % 500, r.Uint64() % 3600, r.Uint64() % 500, uint64(i)}
		res, _, _ := c.InsertWait(i%8, "test-index", rec)
		if !res.OK {
			t.Fatal("insert failed")
		}
	}
	// Every node reports its version-0 histogram.
	for _, nd := range c.Nodes {
		if err := nd.ReportHistogram("test-index", 0, 8); err != nil {
			t.Fatal(err)
		}
	}
	c.Settle(20 * time.Second)
	// Every node must now hold balanced cuts for version 1, and they
	// must agree.
	var ref *embed.Tree
	for _, nd := range c.Nodes {
		tr, err := nd.CutTree("test-index", 1)
		if err != nil {
			t.Fatal(err)
		}
		if tr.ExplicitDepth() != mind.BalancedCutDepth {
			t.Fatalf("%s: version-1 tree depth %d, want balanced depth %d", nd.Addr(), tr.ExplicitDepth(), mind.BalancedCutDepth)
		}
		if ref == nil {
			ref = tr
		} else {
			p := []uint64{250, 1800, 250}
			if !tr.PointCode(p, 12).Equal(ref.PointCode(p, 12)) {
				t.Fatal("nodes installed different version-1 trees")
			}
		}
	}
	// Version-1 inserts under the new cuts must spread more evenly than
	// version-0 ones did.
	for i := 0; i < 300; i++ {
		rec := schema.Record{r.Uint64() % 500, 3600 + r.Uint64()%3600, r.Uint64() % 500, uint64(10000 + i)}
		res, _, _ := c.InsertWait(i%8, "test-index", rec)
		if !res.OK {
			t.Fatal("v1 insert failed")
		}
	}
	qr, _, _ := c.QueryWait(0, "test-index", fullRect())
	if !qr.Complete || len(qr.Records) != 600 {
		t.Fatalf("post-rebalance recall: %+v records=%d", qr.Complete, len(qr.Records))
	}
}

func TestInstallCutsOffline(t *testing.T) {
	// The paper computed balanced cuts off-line and installed them; the
	// InstallCuts API supports the same flow.
	c := mkCluster(t, 4, 24, nil)
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	h := histogram.MustNew(8, sch.Bounds())
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 1000; i++ {
		h.AddPoint([]uint64{r.Uint64() % 300, r.Uint64() % 86401, r.Uint64() % 300})
	}
	tree, err := embed.Balanced(h, 5)
	if err != nil {
		t.Fatal(err)
	}
	c.Nodes[2].InstallCuts("test-index", 7, tree)
	ok := c.Net.RunUntil(func() bool {
		for _, nd := range c.Nodes {
			tr, err := nd.CutTree("test-index", 7)
			if err != nil || tr.ExplicitDepth() != 5 {
				return false
			}
		}
		return true
	}, 1_000_000)
	if !ok {
		t.Fatal("offline cuts did not propagate")
	}
}

func TestGeographicCluster(t *testing.T) {
	// The 34-node Abilene+GÉANT deployment with geographic latencies.
	c := mkCluster(t, 0, 26, func(o *cluster.Options) {
		o.Routers = clusterRouters()
	})
	if len(c.Nodes) != 34 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	c.Settle(3 * time.Second)
	res, lat, err := c.InsertWait(0, "test-index", schema.Record{5, 5, 5, 5})
	if err != nil || !res.OK {
		t.Fatalf("geo insert: %v %+v", err, res)
	}
	if lat > 5*time.Second {
		t.Fatalf("geo insert latency = %v", lat)
	}
	if res.StoredAt != c.Nodes[0].Addr() && lat == 0 {
		t.Fatal("remote insert took zero virtual time")
	}
	qr, qlat, _ := c.QueryWait(17, "test-index", fullRect())
	if !qr.Complete || len(qr.Records) != 1 {
		t.Fatalf("geo query: %+v", qr)
	}
	if qlat <= 0 {
		t.Fatal("query latency not measured")
	}
}

func TestStatsCounters(t *testing.T) {
	c := mkCluster(t, 8, 28, nil)
	if err := c.CreateIndex(testSchema()); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 50; i++ {
		res, _, _ := c.InsertWait(0, "test-index", randRec(r))
		if !res.OK {
			t.Fatal("insert failed")
		}
	}
	var stored, forwarded, replicated uint64
	for _, nd := range c.Nodes {
		s := nd.Stats()
		stored += s.Stored
		forwarded += s.Forwarded
		replicated += s.Replicated
	}
	if stored != 50 {
		t.Errorf("stored = %d, want 50", stored)
	}
	if forwarded == 0 {
		t.Error("no forwarding recorded on an 8-node overlay")
	}
	if replicated == 0 {
		t.Error("no replication recorded with m=1")
	}
}

// clusterRouters returns the combined 34-router deployment.
func clusterRouters() []topo.Router { return topo.Combined() }
