package mind_test

import (
	"testing"
	"time"

	"mind/internal/cluster"
	"mind/internal/drilldown"
	"mind/internal/mind"
	"mind/internal/schema"
)

// TestDrilldownOverCluster runs the §7 automated drill-down against a
// live MIND deployment: a coarse anomalous region is refined by
// re-querying progressively smaller rectangles until the two injected
// anomaly clusters are isolated.
func TestDrilldownOverCluster(t *testing.T) {
	c := mkCluster(t, 8, 51, nil)
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)

	// Background: scattered small-x records. Anomalies: two tight
	// clusters at high x.
	for i := 0; i < 60; i++ {
		res, _, _ := c.InsertWait(i%8, "test-index", schema.Record{uint64(i * 37 % 3000), uint64(i * 97), uint64(i * 53 % 9000), uint64(i)})
		if !res.OK {
			t.Fatal("insert failed")
		}
	}
	anomalies := []schema.Record{
		{9100, 100, 500, 1001},
		{9105, 150, 510, 1002},
		{9700, 200, 8000, 1003},
		{9705, 210, 8010, 1004},
	}
	for i, rec := range anomalies {
		res, _, _ := c.InsertWait(i%8, "test-index", rec)
		if !res.OK {
			t.Fatal("insert failed")
		}
	}

	queries := 0
	qf := func(rect schema.Rect) ([]schema.Record, bool, error) {
		queries++
		res, _, err := c.QueryWait(3, "test-index", rect)
		return res.Records, res.Complete, err
	}
	// Coarse suspicion: anything with x >= 9000 (the anomalous volume).
	start := schema.Rect{Lo: []uint64{9000, 0, 0}, Hi: []uint64{9999, 86400, 9999}}
	res, err := drilldown.Hunt(qf, start, drilldown.Config{SmallEnough: 2, MaxQueries: 80, FrozenDims: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) < 2 {
		t.Fatalf("findings = %d, want the two clusters isolated", len(res.Findings))
	}
	got := 0
	for _, f := range res.Findings {
		got += len(f.Records)
	}
	if got != len(anomalies) {
		t.Fatalf("drill-down found %d anomalous records, want %d", got, len(anomalies))
	}
	if queries == 0 || res.Queries != queries {
		t.Fatalf("query accounting: %d vs %d", res.Queries, queries)
	}
	// The payload attribute (index 3) identifies the anomalies.
	set := drilldown.MonitorSet(res.Findings, 3)
	if len(set) != 4 || set[0] != 1001 {
		t.Fatalf("finding payloads = %v", set)
	}
}

// TestQueryUncoveredDiagnostics checks the incomplete-query diagnostics
// surface the unreachable region.
func TestQueryUncoveredDiagnostics(t *testing.T) {
	c := mkCluster(t, 8, 53, func(o *cluster.Options) {
		o.Node.Replication = 0
		o.Node.QueryTimeout = 5 * time.Second
		// Slow detection so the dead region stays uncovered during the
		// query instead of being taken over.
		o.Node.Overlay.FailAfter = 10 * time.Minute
	})
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)
	victim := 4
	victimCode := c.Nodes[victim].Code()
	c.Kill(victim)

	var got *mind.QueryResult
	if err := c.Nodes[0].Query("test-index", fullRect(), func(r mind.QueryResult) { got = &r }); err != nil {
		t.Fatal(err)
	}
	c.Net.RunUntil(func() bool { return got != nil }, 50_000_000)
	if got == nil {
		t.Fatal("query never returned")
	}
	// No replica can answer for the dead region and no takeover can fire
	// inside the 5 s the query waits, so a complete answer is impossible.
	if got.Complete {
		t.Fatal("query completed although the dead node's region has no replica and cannot have been taken over")
	}
	if len(got.Uncovered) == 0 {
		t.Fatal("incomplete result carries no uncovered diagnostics")
	}
	found := false
	for _, u := range got.Uncovered {
		if containsCode(u, victimCode.String()) {
			found = true
		}
	}
	if !found {
		t.Fatalf("uncovered=%v names no region prefix-related to the victim's code %s", got.Uncovered, victimCode)
	}
}

func containsCode(u, code string) bool {
	// u is "vN:CODE"; match prefix relation either way.
	i := 0
	for i < len(u) && u[i] != ':' {
		i++
	}
	if i == len(u) {
		return false
	}
	r := u[i+1:]
	if len(r) <= len(code) {
		return r == code[:len(r)]
	}
	return r[:len(code)] == code
}
