package mind_test

import (
	"testing"
	"time"

	"mind/internal/cluster"
	"mind/internal/embed"
	"mind/internal/mind"
	"mind/internal/schema"
)

// TestLocalHistogramProjectsTimestamps pins the §3.7 stationarity
// projection: the histogram of day-d data describes the PREDICTED day
// d+1 distribution, i.e. each record's timestamp shifted one version
// period forward, so balanced cuts computed from it land inside the
// next day's time range.
func TestLocalHistogramProjectsTimestamps(t *testing.T) {
	c := mkCluster(t, 1, 61, nil) // VersionSeconds = 3600 in the test config
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	// Version-0 records: timestamps in [100, 3040] — strictly inside the
	// first hour, away from bin edges.
	for i := 0; i < 50; i++ {
		rec := schema.Record{uint64(i * 100), uint64(100 + i*60), uint64(i * 90), uint64(i)}
		res, _, _ := c.InsertWait(0, "test-index", rec)
		if !res.OK {
			t.Fatal("insert failed")
		}
	}
	// Granularity 24 over the 86400 time bound gives 3601-second bins
	// aligned with the hourly version period, so the projection is
	// visible at bin resolution.
	h, err := c.Nodes[0].LocalHistogram("test-index", 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 50 {
		t.Fatalf("histogram total = %v", h.Total())
	}
	// The mass must sit in the projected window (second hour), not the
	// source window (first hour).
	inOrig := h.CountRange([]uint64{0, 0, 0}, []uint64{9999, 3600, 9999})
	inNext := h.CountRange([]uint64{0, 3601, 0}, []uint64{9999, 7201, 9999})
	if inOrig > 1 {
		t.Errorf("%.1f records left in the source window", inOrig)
	}
	if inNext < 49 {
		t.Errorf("projected window holds %.1f/50 records", inNext)
	}
}

// TestHistogramCollectionDesignatedNode checks that reports from every
// node reach the all-zero-code owner and exactly one install flood
// results.
func TestHistogramCollectionDesignatedNode(t *testing.T) {
	c := mkCluster(t, 8, 63, func(o *cluster.Options) {
		o.Node.HistCollectWait = 2 * time.Second
	})
	sch := testSchema()
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)
	for i := 0; i < 100; i++ {
		rec := schema.Record{uint64(i % 300), uint64(i * 30 % 3600), uint64(i % 500), uint64(i)}
		res, _, _ := c.InsertWait(i%8, "test-index", rec)
		if !res.OK {
			t.Fatal("insert failed")
		}
	}
	for _, nd := range c.Nodes {
		if err := nd.ReportHistogram("test-index", 0, 6); err != nil {
			t.Fatal(err)
		}
	}
	c.Settle(20 * time.Second)
	// Every node ends with the same version-1 balanced tree.
	probe := []uint64{100, 3605, 100}
	var refCode string
	for _, nd := range c.Nodes {
		tr, err := nd.CutTree("test-index", 1)
		if err != nil {
			t.Fatal(err)
		}
		if tr.ExplicitDepth() != mind.BalancedCutDepth {
			t.Fatalf("%s: depth %d", nd.Addr(), tr.ExplicitDepth())
		}
		code := tr.PointCode(probe, 10).String()
		if refCode == "" {
			refCode = code
		} else if code != refCode {
			t.Fatalf("inconsistent installed trees: %s vs %s", code, refCode)
		}
	}
}

// TestRebalanceEdgeCases drives the collection loop through its
// degenerate inputs: a day with no data anywhere (the merged histogram
// is empty, so every balanced cut must fall back to the midpoint), a
// single-node cluster (the designated node is the reporter itself and
// the install flood has no recipients), and the version counter's
// rollover at ^uint32(0) (day+1 wraps to version 0; the install must
// land there rather than panic or vanish).
func TestRebalanceEdgeCases(t *testing.T) {
	cases := []struct {
		name        string
		nodes       int
		day         uint32
		inserts     int
		wantVersion uint32
		// wantMidpoint asserts the installed tree is indistinguishable
		// from the uniform embedding (empty histogram fallback).
		wantMidpoint bool
	}{
		{name: "empty histogram", nodes: 4, day: 0, inserts: 0, wantVersion: 1, wantMidpoint: true},
		{name: "single node index", nodes: 1, day: 0, inserts: 20, wantVersion: 1},
		{name: "version rollover", nodes: 2, day: ^uint32(0), inserts: 0, wantVersion: 0, wantMidpoint: true},
	}
	for ci, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := mkCluster(t, tc.nodes, 64+int64(ci), func(o *cluster.Options) {
				o.Node.HistCollectWait = 2 * time.Second
			})
			sch := testSchema()
			if err := c.CreateIndex(sch); err != nil {
				t.Fatal(err)
			}
			c.Settle(2 * time.Second)
			for i := 0; i < tc.inserts; i++ {
				rec := schema.Record{uint64(i * 37 % 10000), uint64(i * 90 % 3600), uint64(i % 500), uint64(i)}
				res, _, _ := c.InsertWait(i%tc.nodes, "test-index", rec)
				if !res.OK {
					t.Fatal("insert failed")
				}
			}
			for _, nd := range c.Nodes {
				h, err := nd.LocalHistogram("test-index", tc.day, 6)
				if err != nil {
					t.Fatalf("%s: LocalHistogram: %v", nd.Addr(), err)
				}
				if tc.inserts == 0 && h.Total() != 0 {
					t.Fatalf("%s: empty day has histogram total %v", nd.Addr(), h.Total())
				}
				if err := nd.ReportHistogram("test-index", tc.day, 6); err != nil {
					t.Fatal(err)
				}
			}
			c.Settle(20 * time.Second)
			uni := embed.Uniform(sch.Bounds())
			probes := [][]uint64{{0, 0, 0}, {9999, 86400, 9999}, {5000, 43200, 17}}
			for _, nd := range c.Nodes {
				tr, err := nd.CutTree("test-index", tc.wantVersion)
				if err != nil {
					t.Fatal(err)
				}
				if tr.ExplicitDepth() != mind.BalancedCutDepth {
					t.Fatalf("%s: version %d tree depth %d, want %d",
						nd.Addr(), tc.wantVersion, tr.ExplicitDepth(), mind.BalancedCutDepth)
				}
				if tc.wantMidpoint {
					for _, p := range probes {
						if got, want := tr.PointCode(p, 10), uni.PointCode(p, 10); !got.Equal(want) {
							t.Fatalf("%s: empty-histogram cuts diverge from midpoints at %v: %s != %s",
								nd.Addr(), p, got, want)
						}
					}
				}
			}
		})
	}
}
