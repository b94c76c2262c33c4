package experiments

import (
	"fmt"
	"time"

	"mind/internal/cluster"
	"mind/internal/flowgen"
	"mind/internal/metrics"
	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/topo"
	"mind/internal/transport/simnet"
)

// insertAll replays records as fast as the network allows (no wall-clock
// pacing); used by experiments that measure storage placement rather
// than latency.
func insertAll(c *cluster.Cluster, recs []timedRec) (ok, failed int) {
	const batch = 200
	done := 0
	issued := 0
	for start := 0; start < len(recs); start += batch {
		end := start + batch
		if end > len(recs) {
			end = len(recs)
		}
		for _, tr := range recs[start:end] {
			node := c.Nodes[tr.node%len(c.Nodes)]
			if c.Net.IsDead(node.Addr()) {
				failed++
				continue
			}
			issued++
			err := node.Insert(tr.tag, tr.rec, func(res mind.InsertResult) {
				if res.OK {
					ok++
				} else {
					failed++
				}
				done++
			})
			if err != nil {
				failed++
				done++
			}
		}
		c.Net.RunUntil(func() bool { return done >= issued }, 100_000_000)
	}
	return ok, failed
}

// Fig13 reproduces the storage-distribution comparison: per-node record
// counts for the three indices under uniform cuts (day 1) versus
// histogram-balanced cuts computed from day 1's distribution and applied
// to day 2 (§3.7). The paper's point: the balanced embedding flattens an
// order-of-magnitude skew.
func Fig13(seed int64, scale float64) (*Report, error) {
	r := newReport("fig13", "Per-node storage: uniform vs histogram-balanced cuts")
	routers := topo.Combined()
	nodeCfg := nodeConfig(seed)
	nodeCfg.Overlay.HeartbeatInterval = 15 * time.Second
	nodeCfg.Overlay.FailAfter = time.Minute
	nodeCfg.HistCollectWait = 10 * time.Second
	c, err := cluster.New(cluster.Options{
		Routers: routers,
		Seed:    seed,
		Sim:     simnet.Config{Seed: seed, DefaultLatency: 10 * time.Millisecond},
		Node:    nodeCfg,
	})
	if err != nil {
		return nil, err
	}
	ix := paperIndices(86400 * 4)
	for _, sch := range []*schema.Schema{ix.i1, ix.i2, ix.i3} {
		if err := c.CreateIndex(sch); err != nil {
			return nil, err
		}
	}
	c.Settle(5 * time.Second)

	dur := uint64(86400 * scale)
	if dur < 3600 {
		dur = 3600
	}
	gcfg := flowgen.DefaultConfig(seed + 7)
	gcfg.Routers = routers
	gcfg.BaseFlowsPerSec = 40 * scale
	if gcfg.BaseFlowsPerSec < 5 {
		gcfg.BaseFlowsPerSec = 5
	}
	g := flowgen.New(gcfg)

	// Day 1: uniform cuts (version 0).
	day1 := buildWorkload(g, 0, dur, ix, true, true, true)
	insertAll(c, day1)

	tb := metrics.NewTable("index", "cuts", "nodes", "max_recs", "mean_recs", "max/mean")
	report := func(tag, label string, version uint32) float64 {
		cnt := metrics.NewCounter()
		for _, nd := range c.Nodes {
			cnt.Inc(nd.Addr(), nd.StoredRecordsVersion(tag, version))
		}
		d := cnt.Values()
		ratio := d.Max() / d.Mean()
		tb.Row(tag, label, d.N(), int(d.Max()), d.Mean(), ratio)
		return ratio
	}
	u1 := report(ix.i1.Tag, "uniform", 0)
	u2 := report(ix.i2.Tag, "uniform", 0)
	u3 := report(ix.i3.Tag, "uniform", 0)

	// Collect day-1 histograms, install balanced cuts for version 1.
	// Granularity 24 per dimension (13.8k cells over 3 dims) resolves
	// the scattered /24 hot spots well enough for median cuts.
	for _, tag := range []string{ix.i1.Tag, ix.i2.Tag, ix.i3.Tag} {
		for _, nd := range c.Nodes {
			if err := nd.ReportHistogram(tag, 0, 24); err != nil {
				return nil, err
			}
		}
	}
	c.Settle(time.Minute)

	// Day 2: same traffic shape (diurnal stationarity), balanced cuts.
	day2 := buildWorkload(g, 86400, 86400+dur, ix, true, true, true)
	insertAll(c, day2)

	b1 := report(ix.i1.Tag, "balanced", 1)
	b2 := report(ix.i2.Tag, "balanced", 1)
	b3 := report(ix.i3.Tag, "balanced", 1)
	r.table(tb)

	r.Values["uniform_imbalance_i1"] = u1
	r.Values["uniform_imbalance_i2"] = u2
	r.Values["uniform_imbalance_i3"] = u3
	r.Values["balanced_imbalance_i1"] = b1
	r.Values["balanced_imbalance_i2"] = b2
	r.Values["balanced_imbalance_i3"] = b3
	r.notef("paper: balanced cuts flatten an order-of-magnitude storage skew; measured "+
		"imbalance uniform→balanced: %.1f→%.1f (I1), %.1f→%.1f (I2), %.1f→%.1f (I3)",
		u1, b1, u2, b2, u3, b3)
	if len(day2) > 0 {
		r.notef(fmt.Sprintf("day1 records=%d day2 records=%d", len(day1), len(day2)))
	}
	return r, nil
}
