package mind_test

import (
	"reflect"
	"testing"
	"time"

	"mind/internal/cluster"
	"mind/internal/schema"
)

// TestQueryFanoutAtVersionRollover drives a dual-version query across
// the version counter's wrap point: with VersionSeconds=1 and a time
// axis reaching past 2^32, timestamp 2^32-1 falls in version ^uint32(0)
// (base tree) and timestamp 2^32 wraps into version 0, where a §3.7
// install has put a real cut tree. The two versions embed with
// different trees, so one query spanning the boundary must dispatch two
// tree groups and still assemble a complete, exact answer.
func TestQueryFanoutAtVersionRollover(t *testing.T) {
	sch := &schema.Schema{
		Tag: "rollover-index",
		Attrs: []schema.Attr{
			{Name: "x", Kind: schema.KindUint, Max: 9999},
			{Name: "t", Kind: schema.KindTime, Max: 1 << 33},
			{Name: "y", Kind: schema.KindUint, Max: 9999},
			{Name: "payload"},
		},
		IndexDims: 3,
	}
	c := mkCluster(t, 4, 71, func(o *cluster.Options) {
		o.Node.VersionSeconds = 1
		o.Node.HistCollectWait = 2 * time.Second
	})
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)

	// Install at the wrap target: reporting for period ^uint32(0) makes
	// the install land at version ^uint32(0)+1 == 0.
	for _, nd := range c.Nodes {
		if err := nd.ReportHistogram(sch.Tag, ^uint32(0), 6); err != nil {
			t.Fatal(err)
		}
	}
	c.Settle(10 * time.Second)
	installed := false
	for _, info := range c.Nodes[0].IndexInfos() {
		if info.Tag != sch.Tag {
			continue
		}
		for _, tr := range info.Trees {
			if tr.Version == 0 && tr.Epoch != 0 && !tr.Retired {
				installed = true
			}
		}
	}
	if !installed {
		t.Fatal("no tree installed at version 0 after the rollover report")
	}

	lastT := uint64(1)<<32 - 1 // version ^uint32(0): base tree
	firstT := uint64(1) << 32  // wraps to version 0: installed tree
	recs := []schema.Record{
		{1, lastT, 1, 100},
		{2, firstT, 2, 200},
	}
	for i, rec := range recs {
		res, _, err := c.InsertWait(i%4, sch.Tag, rec)
		if err != nil || !res.OK {
			t.Fatalf("insert %d: ok=%v err=%v", i, res.OK, err)
		}
	}
	c.Settle(2 * time.Second)

	rect := schema.Rect{Lo: []uint64{0, lastT, 0}, Hi: []uint64{9999, firstT, 9999}}
	res := gatherComplete(t, c, 1, sch.Tag, rect)
	if t.Failed() {
		return
	}
	got := map[uint64]bool{}
	for _, r := range res[0].records {
		got[r[3]] = true
	}
	if !got[100] || !got[200] || res[0].count != 2 {
		t.Fatalf("rollover-spanning query returned %v, want payloads {100, 200}", res[0].records)
	}
	if want := bruteCount(c, sch.Tag, rect); res[1].count != res[0].count || res[1].count != want {
		t.Fatalf("rollover-spanning aggregate counts %d, query %d, nodes store %d", res[1].count, res[0].count, want)
	}
}

// TestQuerySkewUninstalledVersion queries across an epoch boundary that
// half the cluster has not crossed yet: a version flip runs on one side
// of a partition, and immediately after the heal a query from the
// flipped side spans the reversioned period. Receivers that have not
// installed the version yet must not silently answer with empty
// coverage — the skew detection either repairs them or the originator's
// retransmission routes around, and the query must complete. After a
// settle window the whole cluster must agree on the version-epoch table
// and the query answer must be exact.
func TestQuerySkewUninstalledVersion(t *testing.T) {
	c := mkCluster(t, 4, 72, func(o *cluster.Options) {
		o.Node.HistCollectWait = 2 * time.Second
	})
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)

	// Records in version 1 (t in [3600, 7200)), spread over origins.
	want := map[uint64]bool{}
	for i := 0; i < 12; i++ {
		rec := schema.Record{uint64(i * 733 % 10000), 3600 + uint64(i*290), uint64(i * 71 % 10000), uint64(1000 + i)}
		res, _, err := c.InsertWait(i%4, sch.Tag, rec)
		if err != nil || !res.OK {
			t.Fatalf("insert %d: ok=%v err=%v", i, res.OK, err)
		}
		want[rec[3]] = true
	}
	c.Settle(2 * time.Second)

	ga := []string{c.Nodes[0].Addr(), c.Nodes[1].Addr()}
	gb := []string{c.Nodes[2].Addr(), c.Nodes[3].Addr()}
	c.Net.Partition(ga, gb)
	c.Settle(time.Second)

	// Version flip on side A only: the install flood cannot cross the
	// partition, so side B stays on the base epoch for version 1.
	for i := 0; i < 2; i++ {
		if err := c.Nodes[i].ReportHistogram(sch.Tag, 0, 6); err != nil {
			t.Fatal(err)
		}
	}
	c.Settle(6 * time.Second)
	c.Net.Heal()

	// No settle: the very next query crosses the epoch boundary while
	// side B still has not installed version 1.
	rect := schema.Rect{Lo: []uint64{0, 3600, 0}, Hi: []uint64{9999, 7199, 9999}}
	qr, _, err := c.QueryWait(0, sch.Tag, rect)
	if err != nil {
		t.Fatal(err)
	}
	if !qr.Complete {
		t.Fatalf("post-heal skewed query incomplete (uncovered: %v)", qr.Uncovered)
	}

	// Settled state: exact answer and a converged version-epoch table.
	c.Settle(10 * time.Second)
	qr, _, err = c.QueryWait(2, sch.Tag, rect)
	if err != nil {
		t.Fatal(err)
	}
	if !qr.Complete {
		t.Fatalf("settled query incomplete (uncovered: %v)", qr.Uncovered)
	}
	got := map[uint64]bool{}
	for _, r := range qr.Records {
		got[r[3]] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("settled query returned %d records, want %d: got=%v", len(got), len(want), got)
	}
	ref := c.Nodes[0].VersionEntries()
	for i := 1; i < 4; i++ {
		if ent := c.Nodes[i].VersionEntries(); !reflect.DeepEqual(ent, ref) {
			t.Fatalf("node %d version table %v diverges from node 0's %v", i, ent, ref)
		}
	}
}
