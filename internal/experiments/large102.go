package experiments

import (
	"fmt"
	"time"

	"mind/internal/cluster"
	"mind/internal/flowgen"
	"mind/internal/metrics"
	"mind/internal/topo"
	"mind/internal/transport/simnet"
)

// fabricateRouters builds an n-monitor deployment by tiling the real
// Abilene+GÉANT PoPs (the §4.3 large-scale experiment used 102
// arbitrarily chosen PlanetLab nodes across North America and Europe).
func fabricateRouters(n int) []topo.Router {
	base := topo.Combined()
	out := make([]topo.Router, n)
	for i := 0; i < n; i++ {
		r := base[i%len(base)]
		r.Name = fmt.Sprintf("%s-%d", r.Name, i/len(base))
		out[i] = r
	}
	return out
}

// setupLarge102 builds the 102-node deployment with churn-capable
// workload: Index-1 records inserted at roughly one record per second
// per node.
func setupLarge102(seed int64, scale float64) (*cluster.Cluster, indexSet, []timedRec, uint64, error) {
	routers := fabricateRouters(102)
	c, err := cluster.New(cluster.Options{
		Routers: routers,
		Seed:    seed,
		Sim: simnet.Config{
			Seed:        seed,
			Latency:     topo.LatencyFunc(routers, topo.Addr, 30*time.Millisecond),
			JitterFrac:  0.3,
			ServiceTime: 10 * time.Millisecond,
		},
		Node: nodeConfig(seed),
	})
	if err != nil {
		return nil, indexSet{}, nil, 0, err
	}
	ix := paperIndices(86400 * 4)
	if err := c.CreateIndex(ix.i1); err != nil {
		return nil, indexSet{}, nil, 0, err
	}
	c.Settle(10 * time.Second)

	dur := uint64(3600 * scale)
	if dur < 600 {
		dur = 600
	}
	wallStart := uint64(12 * 3600)
	gcfg := flowgen.DefaultConfig(seed + 3)
	gcfg.Routers = routers
	gcfg.BaseFlowsPerSec = 30 * scale
	if gcfg.BaseFlowsPerSec < 10 {
		gcfg.BaseFlowsPerSec = 10
	}
	g := flowgen.New(gcfg)
	recs := buildWorkload(g, wallStart, wallStart+dur, ix, true, false, false)
	return c, ix, recs, wallStart, nil
}

// fig14Run executes the shared 102-node churn run.
func fig14Run(seed int64, scale float64) (*cluster.Cluster, []insertSample, []querySample, error) {
	c, ix, recs, wallStart, err := setupLarge102(seed, scale)
	if err != nil {
		return nil, nil, nil, err
	}
	// Kill ~10% of nodes spread through the run.
	var kills []kill
	const nKills = 10
	for k := 0; k < nKills; k++ {
		kills = append(kills, kill{node: 7 + k*9, at: (k + 1) * len(recs) / (nKills + 1)})
	}
	samples := driveInserts(c, recs, wallStart, kills...)
	c.Settle(20 * time.Second)

	rng := xorshift(uint64(seed) + 1717)
	spec := querySpec{tag: ix.i1.Tag, bounds: ix.i1.Bounds(), timeAt: 1}
	nq := int(120 * scale)
	if nq < 40 {
		nq = 40
	}
	qs := driveQueries(c, spec, nq, wallStart+uint64(3600*scale), rng.next)
	return c, samples, qs, nil
}

// Fig14 reproduces the 102-node insertion-latency CDF under churn: the
// median stays below a second while the tail stretches long.
func Fig14(seed int64, scale float64) (*Report, error) {
	r := newReport("fig14", "Insertion latency CDF, 102-node overlay with churn")
	_, samples, _, err := fig14Run(seed, scale)
	if err != nil {
		return nil, err
	}
	d := metrics.NewDist()
	failed := 0
	for _, s := range samples {
		if s.ok {
			d.AddDuration(s.lat)
		} else if !s.at.IsZero() {
			failed++
		}
	}
	tb := metrics.NewTable("latency<=_s", "fraction")
	for _, x := range []float64{0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 30} {
		tb.Row(x, d.FracAtMost(x))
	}
	r.table(tb)
	s := d.Summarize()
	r.Values["median_s"] = s.Median
	r.Values["p99_s"] = s.P99
	r.Values["inserted"] = float64(s.N)
	r.Values["failed"] = float64(failed)
	r.notef("paper: median below 1 s with a long tail (re-routing around failures); "+
		"measured median %.3f s, p99 %.2f s, %d failed/timed out", s.Median, s.P99, failed)
	return r, nil
}

// Fig15 reproduces the hop-count distributions at 102 nodes: nearly 90%
// of insertions within 5 overlay hops (some take more when re-routed
// around failures), and queries visiting at most ~12 nodes.
func Fig15(seed int64, scale float64) (*Report, error) {
	r := newReport("fig15", "Insertion hops and query cost, 102-node overlay")
	_, samples, qs, err := fig14Run(seed, scale)
	if err != nil {
		return nil, err
	}
	hops := metrics.NewDist()
	for _, s := range samples {
		if s.ok {
			hops.Add(float64(s.hops))
		}
	}
	tb := metrics.NewTable("insert_hops<=", "fraction")
	for _, k := range []float64{1, 2, 3, 4, 5, 7, 9, 12, 20} {
		tb.Row(int(k), hops.FracAtMost(k))
	}
	r.table(tb)

	cost := metrics.NewDist()
	for _, q := range qs {
		if q.complete {
			cost.Add(float64(q.responders))
		}
	}
	tb2 := metrics.NewTable("query_nodes<=", "fraction")
	for _, k := range []float64{1, 2, 3, 5, 8, 12, 20} {
		tb2.Row(int(k), cost.FracAtMost(k))
	}
	r.table(tb2)
	r.Values["insert_hops_le5"] = hops.FracAtMost(5)
	r.Values["insert_hops_max"] = hops.Max()
	r.Values["query_nodes_le5"] = cost.FracAtMost(5)
	r.Values["query_nodes_max"] = cost.Max()
	r.notef("paper: ~90%% of insertions ≤5 hops, some exceed the diameter when re-routed; 90%% of "+
		"queries visit <5 nodes, max 12; measured: %.0f%% ≤5 hops, %.0f%% of queries ≤5 nodes (max %.0f)",
		100*hops.FracAtMost(5), 100*cost.FracAtMost(5), cost.Max())
	return r, nil
}
