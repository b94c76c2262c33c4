package experiments

import (
	"fmt"
	"time"

	"mind/internal/baseline"
	"mind/internal/cluster"
	"mind/internal/embed"
	"mind/internal/flowgen"
	"mind/internal/histogram"
	"mind/internal/metrics"
	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/store"
	"mind/internal/topo"
	"mind/internal/transport/simnet"
)

// AblationCuts quantifies the balanced-cuts design decision (§3.7) on a
// small overlay: storage imbalance and query cost under uniform versus
// histogram-balanced embeddings of the same skewed workload.
func AblationCuts(seed int64, scale float64) (*Report, error) {
	r := newReport("ablation-cuts", "Uniform vs balanced cuts: storage imbalance and query cost")
	run := func(balanced bool) (imbalance float64, respondersMean float64, err error) {
		nodeCfg := nodeConfig(seed)
		c, err := cluster.New(cluster.Options{
			N:    16,
			Seed: seed,
			Sim:  simnet.Config{Seed: seed, DefaultLatency: 5 * time.Millisecond},
			Node: nodeCfg,
		})
		if err != nil {
			return 0, 0, err
		}
		ix := paperIndices(86400 * 2)
		dur := uint64(3600 * scale * 4)
		if dur < 1200 {
			dur = 1200
		}
		gcfg := flowgen.DefaultConfig(seed + 13)
		gcfg.BaseFlowsPerSec = 30 * scale
		if gcfg.BaseFlowsPerSec < 6 {
			gcfg.BaseFlowsPerSec = 6
		}
		g := flowgen.New(gcfg)
		recs := buildWorkload(g, 0, dur, ix, false, true, false)

		var tree *embed.Tree
		if balanced {
			h := histogram.MustNew(12, ix.i2.Bounds())
			for _, tr := range recs {
				h.AddPoint(tr.rec.Point(ix.i2))
			}
			tree, err = embed.Balanced(h, 10)
			if err != nil {
				return 0, 0, err
			}
		}
		if err := c.Nodes[0].CreateIndex(ix.i2, tree); err != nil {
			return 0, 0, err
		}
		c.Net.RunUntil(func() bool {
			for _, nd := range c.Nodes {
				if !nd.HasIndex(ix.i2.Tag) {
					return false
				}
			}
			return true
		}, 5_000_000)
		c.Settle(3 * time.Second)
		insertAll(c, recs)

		cnt := metrics.NewCounter()
		for _, nd := range c.Nodes {
			cnt.Inc(nd.Addr(), nd.StoredRecords(ix.i2.Tag))
		}
		rng := xorshift(uint64(seed) + 555)
		spec := querySpec{tag: ix.i2.Tag, bounds: ix.i2.Bounds(), timeAt: 1}
		qs := driveQueries(c, spec, 40, dur, rng.next)
		resp := metrics.NewDist()
		for _, q := range qs {
			if q.complete {
				resp.Add(float64(q.responders))
			}
		}
		return cnt.ImbalanceRatio(), resp.Mean(), nil
	}
	uImb, uResp, err := run(false)
	if err != nil {
		return nil, err
	}
	bImb, bResp, err := run(true)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("cuts", "storage_max/mean", "query_nodes_mean")
	tb.Row("uniform", uImb, uResp)
	tb.Row("balanced", bImb, bResp)
	r.table(tb)
	r.Values["uniform_imbalance"] = uImb
	r.Values["balanced_imbalance"] = bImb
	r.Values["uniform_responders"] = uResp
	r.Values["balanced_responders"] = bResp
	r.notef("balanced cuts trade a modest query-cost increase for storage balance (imbalance %.1f→%.1f)", uImb, bImb)
	return r, nil
}

// AblationCutOrder varies the round-robin cut dimension order (which in
// MIND is the index's attribute order) and measures the cost of the §4.1
// monitoring query template, which pins the timestamp and volume ranges
// but spans destinations. Cutting the most selective dimensions first
// should reduce the nodes a query touches.
func AblationCutOrder(seed int64, scale float64) (*Report, error) {
	r := newReport("ablation-cutorder", "Cut-dimension order vs query cost")
	horizon := uint64(86400 * 2)
	orders := []struct {
		name string
		sch  *schema.Schema
	}{
		{"dst,ts,oct (paper)", schema.Index2(horizon)},
		{"ts,oct,dst", &schema.Schema{Tag: "i2-t", IndexDims: 3, Attrs: []schema.Attr{
			{Name: "timestamp", Kind: schema.KindTime, Max: horizon},
			{Name: "octets", Kind: schema.KindUint, Max: schema.OctetsBound},
			{Name: "dest_prefix", Kind: schema.KindIPv4, Max: 0xffffffff},
			{Name: "source_prefix", Kind: schema.KindIPv4, Max: 0xffffffff},
			{Name: "node", Kind: schema.KindNode},
		}}},
		{"oct,dst,ts", &schema.Schema{Tag: "i2-o", IndexDims: 3, Attrs: []schema.Attr{
			{Name: "octets", Kind: schema.KindUint, Max: schema.OctetsBound},
			{Name: "dest_prefix", Kind: schema.KindIPv4, Max: 0xffffffff},
			{Name: "timestamp", Kind: schema.KindTime, Max: horizon},
			{Name: "source_prefix", Kind: schema.KindIPv4, Max: 0xffffffff},
			{Name: "node", Kind: schema.KindNode},
		}}},
	}
	tb := metrics.NewTable("cut_order", "alpha_query_nodes_mean", "alpha_query_latency_s")
	for _, ord := range orders {
		c, err := cluster.New(cluster.Options{
			N:    16,
			Seed: seed,
			Sim:  simnet.Config{Seed: seed, DefaultLatency: 5 * time.Millisecond},
			Node: nodeConfig(seed),
		})
		if err != nil {
			return nil, err
		}
		if err := c.CreateIndex(ord.sch); err != nil {
			return nil, err
		}
		c.Settle(3 * time.Second)
		// The same Index-2 record stream, permuted per schema.
		ix := paperIndices(horizon)
		dur := uint64(2400 * scale * 4)
		if dur < 1200 {
			dur = 1200
		}
		gcfg := flowgen.DefaultConfig(seed + 17)
		gcfg.BaseFlowsPerSec = 30 * scale
		if gcfg.BaseFlowsPerSec < 6 {
			gcfg.BaseFlowsPerSec = 6
		}
		g := flowgen.New(gcfg)
		base := buildWorkload(g, 0, dur, ix, false, true, false)
		recs := make([]timedRec, len(base))
		for i, tr := range base {
			recs[i] = tr
			recs[i].tag = ord.sch.Tag
			recs[i].rec = permuteRecord(ix.i2, ord.sch, tr.rec)
		}
		insertAll(c, recs)

		// The alpha-flow query template: all destinations, last 5 min,
		// large volumes.
		rect := schema.Rect{Lo: make([]uint64, 3), Hi: make([]uint64, 3)}
		for d := 0; d < 3; d++ {
			switch ord.sch.Attrs[d].Name {
			case "dest_prefix":
				rect.Lo[d], rect.Hi[d] = 0, 0xffffffff
			case "timestamp":
				rect.Lo[d], rect.Hi[d] = dur-300, dur
			case "octets":
				rect.Lo[d], rect.Hi[d] = 1_000_000, schema.OctetsBound
			}
		}
		resp := metrics.NewDist()
		lat := metrics.NewDist()
		for from := 0; from < len(c.Nodes); from++ {
			res, d, err := c.QueryWait(from, ord.sch.Tag, rect)
			if err != nil || !res.Complete {
				continue
			}
			resp.Add(float64(res.Responders))
			lat.AddDuration(d)
		}
		tb.Row(ord.name, resp.Mean(), lat.Mean())
		r.Values["nodes_"+ord.sch.Tag] = resp.Mean()
	}
	r.table(tb)
	r.notef("cut order = attribute order; ordering selective dimensions first narrows the touched region")
	return r, nil
}

// permuteRecord re-orders a record from one schema's attribute order to
// another's (matching attributes by name).
func permuteRecord(from, to *schema.Schema, rec schema.Record) schema.Record {
	out := make(schema.Record, len(to.Attrs))
	for i, a := range to.Attrs {
		j := from.AttrIndex(a.Name)
		if j >= 0 {
			out[i] = rec[j]
		}
	}
	return out
}

// AblationHistGranularity measures balance quality versus the histogram
// granularity the balanced cuts are computed from (§3.7: "the efficiency
// of load balancing depends upon the granularity of the bins").
func AblationHistGranularity(seed int64, scale float64) (*Report, error) {
	r := newReport("ablation-hist", "Histogram granularity vs balanced-cut quality")
	ix := paperIndices(86400 * 2)
	dur := uint64(14400 * scale)
	if dur < 1800 {
		dur = 1800
	}
	gcfg := flowgen.DefaultConfig(seed + 19)
	gcfg.BaseFlowsPerSec = 30 * scale
	if gcfg.BaseFlowsPerSec < 6 {
		gcfg.BaseFlowsPerSec = 6
	}
	g := flowgen.New(gcfg)
	recs := buildWorkload(g, 0, dur, ix, false, true, false)
	points := make([][]uint64, len(recs))
	for i, tr := range recs {
		points[i] = tr.rec.Point(ix.i2)
	}

	regionDepth := 5 // 32 regions ≈ a 32-node overlay
	tb := metrics.NewTable("granularity_k", "cells", "region_max/mean")
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		h := histogram.MustNew(k, ix.i2.Bounds())
		for _, p := range points {
			h.AddPoint(p)
		}
		tree, err := embed.Balanced(h, 10)
		if err != nil {
			return nil, err
		}
		counts := map[uint64]int{}
		for _, p := range points {
			counts[tree.PointCode(p, regionDepth).Uint64()]++
		}
		d := metrics.NewDist()
		for i := 0; i < 1<<uint(regionDepth); i++ {
			d.Add(float64(counts[uint64(i)]))
		}
		ratio := d.Max() / d.Mean()
		tb.Row(k, k*k*k, ratio)
		r.Values[fmt.Sprintf("imbalance_k%d", k)] = ratio
	}
	r.table(tb)
	r.notef("finer histograms give better median estimates and flatter region loads, with diminishing returns")
	return r, nil
}

// AblationStore compares the store engine (store.NewSharded, a ladder of
// k-d arenas) against the naive store.Scan on the local range-query
// workload a MIND node serves: both must return the same matches. How
// much faster the engine answers is measured by the store package's
// micro-benchmarks (BenchmarkStoreLayout), not here.
func AblationStore(seed int64, scale float64) (*Report, error) {
	r := newReport("ablation-store", "Local storage engine: k-d tree vs linear scan")
	ix := paperIndices(86400 * 2)
	n := int(200000 * scale)
	if n < 20000 {
		n = 20000
	}
	rng := xorshift(uint64(seed) + 23)
	kd := store.NewSharded(ix.i2, store.Options{})
	sc := store.NewScan(ix.i2)
	for i := 0; i < n; i++ {
		rec := schema.Record{rng.next() % (1 << 32), rng.next() % 86400, rng.next() % schema.OctetsBound, rng.next() % (1 << 32), rng.next() % 34}
		kd.Insert(rec)
		sc.Insert(rec)
	}
	mkRect := func() schema.Rect {
		lo := rng.next() % 86100
		return schema.Rect{
			Lo: []uint64{0, lo, 1_000_000},
			Hi: []uint64{1 << 32, lo + 300, schema.OctetsBound},
		}
	}
	const queries = 100
	kdRecs, scRecs := 0, 0
	for q := 0; q < queries; q++ {
		rect := mkRect()
		kdRecs += len(kd.Query(rect))
		scRecs += len(sc.Query(rect))
	}
	tb := metrics.NewTable("store", "records", "queries", "matches")
	tb.Row("kd-tree", n, queries, kdRecs)
	tb.Row("scan", n, queries, scRecs)
	r.table(tb)
	r.Values["kd_matches"] = float64(kdRecs)
	r.Values["scan_matches"] = float64(scRecs)
	r.notef("k-d tree and scan agree on the §4.1 window queries over %d records", n)
	return r, nil
}

// AblationArchitectures compares the three §2.1 architectures on the
// same workload and substrate: per-query nodes touched, query latency,
// and the busiest link's share of insert traffic.
func AblationArchitectures(seed int64, scale float64) (*Report, error) {
	r := newReport("ablation-arch", "Architecture comparison: MIND vs flooding vs centralized")
	ix := paperIndices(86400 * 2)
	routers := topo.Combined()
	dur := uint64(2400 * scale * 4)
	if dur < 1200 {
		dur = 1200
	}
	mkRecs := func() []timedRec {
		gcfg := flowgen.DefaultConfig(seed + 29)
		gcfg.Routers = routers
		gcfg.BaseFlowsPerSec = 30 * scale
		if gcfg.BaseFlowsPerSec < 6 {
			gcfg.BaseFlowsPerSec = 6
		}
		g := flowgen.New(gcfg)
		return buildWorkload(g, 0, dur, ix, false, true, false)
	}
	tb := metrics.NewTable("architecture", "query_nodes_mean", "query_latency_mean_s", "busiest_link_msgs", "max_node_inbound", "total_msgs")

	// MIND.
	{
		c, err := cluster.New(cluster.Options{
			Routers: routers,
			Seed:    seed,
			Sim:     simnet.Config{Seed: seed, Latency: topo.LatencyFunc(routers, topo.Addr, 20*time.Millisecond)},
			Node:    nodeConfig(seed),
		})
		if err != nil {
			return nil, err
		}
		if err := c.CreateIndex(ix.i2); err != nil {
			return nil, err
		}
		c.Settle(3 * time.Second)
		insertAll(c, mkRecs())
		rng := xorshift(uint64(seed) + 31)
		spec := querySpec{tag: ix.i2.Tag, bounds: ix.i2.Bounds(), timeAt: 1}
		qs := driveQueries(c, spec, 40, dur, rng.next)
		resp, lat := metrics.NewDist(), metrics.NewDist()
		for _, q := range qs {
			if q.complete {
				resp.Add(float64(q.responders))
				lat.AddDuration(q.lat)
			}
		}
		// Count insert tuples per link (protocol chatter such as
		// heartbeats would not be comparable across architectures).
		lt := map[string]uint64{}
		for _, nd := range c.Nodes {
			for k, v := range nd.TupleLinkCounts() {
				lt[k] += v
			}
		}
		busiest := maxLink(lt)
		st := c.Net.Stats()
		tb.Row("MIND", resp.Mean(), lat.Mean(), busiest, maxInbound(lt), st.Sent)
		r.Values["mind_nodes"] = resp.Mean()
		r.Values["mind_latency_s"] = lat.Mean()
		r.Values["mind_busiest_link"] = float64(maxInbound(lt))
	}

	// Flooding.
	{
		net := simnet.New(simnet.Config{Seed: seed + 1, Latency: topo.LatencyFunc(routers, topo.Addr, 20*time.Millisecond)})
		addrs := make([]string, len(routers))
		for i, rt := range routers {
			addrs[i] = topo.Addr(rt)
		}
		nodes := make([]*baseline.FloodNode, len(routers))
		for i := range nodes {
			ep, err := net.Endpoint(addrs[i])
			if err != nil {
				return nil, err
			}
			var peers []string
			for j, a := range addrs {
				if j != i {
					peers = append(peers, a)
				}
			}
			nodes[i] = baseline.NewFloodNode(ep, net.Clock(), ix.i2, peers)
		}
		for _, tr := range mkRecs() {
			nodes[tr.node%len(nodes)].Insert(tr.rec)
		}
		rng := xorshift(uint64(seed) + 31)
		spec := querySpec{tag: ix.i2.Tag, bounds: ix.i2.Bounds(), timeAt: 1}
		resp, lat := metrics.NewDist(), metrics.NewDist()
		for q := 0; q < 40; q++ {
			rect := rectFor(spec, dur, rng.next)
			from := int(rng.next() % uint64(len(nodes)))
			var res *baseline.QueryResult
			start := net.Now()
			nodes[from].Query(rect, 30*time.Second, func(qr baseline.QueryResult) { res = &qr })
			net.RunUntil(func() bool { return res != nil }, 10_000_000)
			if res != nil && res.Complete {
				resp.Add(float64(res.Responders))
				lat.AddDuration(net.Now().Sub(start))
			}
		}
		st := net.Stats()
		tb.Row("flooding", resp.Mean(), lat.Mean(), maxLink(net.LinkTraffic()), maxInbound(net.LinkTraffic()), st.Sent)
		r.Values["flood_nodes"] = resp.Mean()
		r.Values["flood_latency_s"] = lat.Mean()
	}

	// Centralized.
	{
		net := simnet.New(simnet.Config{Seed: seed + 2, Latency: topo.LatencyFunc(routers, topo.Addr, 20*time.Millisecond), DefaultLatency: 20 * time.Millisecond})
		sep, err := net.Endpoint("central")
		if err != nil {
			return nil, err
		}
		baseline.NewCentralServer(sep, ix.i2)
		clients := make([]*baseline.CentralClient, len(routers))
		for i, rt := range routers {
			ep, err := net.Endpoint(topo.Addr(rt))
			if err != nil {
				return nil, err
			}
			clients[i] = baseline.NewCentralClient(ep, net.Clock(), "central")
		}
		acked := 0
		want := 0
		for _, tr := range mkRecs() {
			want++
			clients[tr.node%len(clients)].Insert(tr.rec, 30*time.Second, func(ok bool) { acked++ })
		}
		net.RunUntil(func() bool { return acked >= want }, 50_000_000)
		rng := xorshift(uint64(seed) + 31)
		spec := querySpec{tag: ix.i2.Tag, bounds: ix.i2.Bounds(), timeAt: 1}
		resp, lat := metrics.NewDist(), metrics.NewDist()
		for q := 0; q < 40; q++ {
			rect := rectFor(spec, dur, rng.next)
			from := int(rng.next() % uint64(len(clients)))
			var res *baseline.QueryResult
			start := net.Now()
			clients[from].Query(rect, 30*time.Second, func(qr baseline.QueryResult) { res = &qr })
			net.RunUntil(func() bool { return res != nil }, 10_000_000)
			if res != nil && res.Complete {
				resp.Add(float64(res.Responders))
				lat.AddDuration(net.Now().Sub(start))
			}
		}
		st := net.Stats()
		tb.Row("centralized", resp.Mean(), lat.Mean(), maxLink(net.LinkTraffic()), maxInbound(net.LinkTraffic()), st.Sent)
		r.Values["central_busiest_link"] = float64(maxInbound(net.LinkTraffic()))
		r.Values["central_latency_s"] = lat.Mean()
	}
	r.table(tb)
	r.notef("flooding touches every node per query; centralized funnels all inserts over the sink's links; " +
		"MIND touches few nodes per query with no single traffic concentration point (§2.1)")
	return r, nil
}

func maxLink(lt map[string]uint64) uint64 {
	var m uint64
	for _, v := range lt {
		if v > m {
			m = v
		}
	}
	return m
}

// maxInbound returns the highest per-node inbound message count — the
// traffic-concentration metric: a centralized sink receives everything,
// MIND and flooding spread it.
func maxInbound(lt map[string]uint64) uint64 {
	per := map[string]uint64{}
	for k, v := range lt {
		for i := 0; i < len(k); i++ {
			// keys are "from→to"; the arrow is a 3-byte rune
			if k[i] == 0xe2 && i+3 <= len(k) {
				per[k[i+3:]] += v
				break
			}
		}
	}
	var m uint64
	for _, v := range per {
		if v > m {
			m = v
		}
	}
	return m
}

// AblationRecovery measures what the expanding-ring recovery (§3.8)
// buys: query completeness and recall on an overlay with cut links and
// a failed node, with the ring enabled versus disabled.
func AblationRecovery(seed int64, scale float64) (*Report, error) {
	r := newReport("ablation-recovery", "Expanding-ring recovery on vs off under damage")
	run := func(ringOn bool) (complete float64, recall float64, err error) {
		nodeCfg := nodeConfig(seed)
		nodeCfg.QueryTimeout = 10 * time.Second
		nodeCfg.Replication = 1
		if !ringOn {
			nodeCfg.Overlay.RingTTLs = nil
		}
		c, err := cluster.New(cluster.Options{
			N:    16,
			Seed: seed,
			Sim:  simnet.Config{Seed: seed, DefaultLatency: 5 * time.Millisecond},
			Node: nodeCfg,
		})
		if err != nil {
			return 0, 0, err
		}
		ix := paperIndices(86400 * 2)
		if err := c.CreateIndex(ix.i2); err != nil {
			return 0, 0, err
		}
		c.Settle(3 * time.Second)
		dur := uint64(1200)
		gcfg := flowgen.DefaultConfig(seed + 41)
		gcfg.BaseFlowsPerSec = 20 * scale
		if gcfg.BaseFlowsPerSec < 6 {
			gcfg.BaseFlowsPerSec = 6
		}
		g := flowgen.New(gcfg)
		recs := buildWorkload(g, 0, dur, ix, false, true, false)
		okN, _ := insertAll(c, recs)

		// Damage: one dead node plus several cut links around node 2.
		c.Kill(11)
		for _, other := range []int{3, 4, 5} {
			c.Net.CutLink(c.Nodes[2].Addr(), c.Nodes[other].Addr())
		}
		c.Settle(30 * time.Second)

		full := ix.i2.FullRect()
		completeN, total := 0, 0
		recallSum := 0.0
		for from := 0; from < len(c.Nodes); from++ {
			if c.Net.IsDead(c.Nodes[from].Addr()) {
				continue
			}
			res, _, err := c.QueryWait(from, ix.i2.Tag, full)
			if err != nil {
				continue
			}
			total++
			if res.Complete {
				completeN++
			}
			recallSum += float64(len(res.Records)) / float64(okN)
		}
		if total == 0 {
			return 0, 0, nil
		}
		return float64(completeN) / float64(total), recallSum / float64(total), nil
	}
	onComplete, onRecall, err := run(true)
	if err != nil {
		return nil, err
	}
	offComplete, offRecall, err := run(false)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("ring_recovery", "queries_complete", "mean_recall")
	tb.Row("enabled (paper)", onComplete, onRecall)
	tb.Row("disabled", offComplete, offRecall)
	r.table(tb)
	r.Values["on_complete"] = onComplete
	r.Values["off_complete"] = offComplete
	r.Values["on_recall"] = onRecall
	r.Values["off_recall"] = offRecall
	r.notef("the scoped broadcast routes stuck messages around dead ends; without it, damaged paths "+
		"silently drop sub-queries (complete: %.2f vs %.2f)", offComplete, onComplete)
	return r, nil
}

// AblationHistoryPointer compares §3.4's no-data-movement history
// pointer against eager transfer-on-split, measuring post-join recall
// and query latency.
func AblationHistoryPointer(seed int64, scale float64) (*Report, error) {
	r := newReport("ablation-history", "History pointer vs transfer-on-split")
	run := func(transfer bool) (recall float64, latency float64, err error) {
		nodeCfg := nodeConfig(seed)
		nodeCfg.TransferOnSplit = transfer
		c, err := cluster.New(cluster.Options{
			N:    8,
			Seed: seed,
			Sim:  simnet.Config{Seed: seed, DefaultLatency: 5 * time.Millisecond},
			Node: nodeCfg,
		})
		if err != nil {
			return 0, 0, err
		}
		ix := paperIndices(86400 * 2)
		if err := c.CreateIndex(ix.i2); err != nil {
			return 0, 0, err
		}
		c.Settle(3 * time.Second)
		dur := uint64(1800)
		gcfg := flowgen.DefaultConfig(seed + 37)
		gcfg.BaseFlowsPerSec = 20 * scale
		if gcfg.BaseFlowsPerSec < 6 {
			gcfg.BaseFlowsPerSec = 6
		}
		g := flowgen.New(gcfg)
		recs := buildWorkload(g, 0, dur, ix, false, true, false)
		okN, _ := insertAll(c, recs)

		// Join 4 new nodes after the data is in place.
		for j := 0; j < 4; j++ {
			ep, err := c.Net.Endpoint(fmt.Sprintf("late-%d", j))
			if err != nil {
				return 0, 0, err
			}
			cfg := nodeCfg
			cfg.Seed = seed + int64(1000+j)
			nd := mind.NewNode(ep, c.Net.Clock(), cfg)
			nd.Join(c.Nodes[0].Addr())
			if !c.Net.RunUntil(nd.Joined, 10_000_000) {
				return 0, 0, fmt.Errorf("late joiner %d stuck", j)
			}
			c.Settle(2 * time.Second)
		}
		c.Settle(5 * time.Second)

		full := ix.i2.FullRect()
		res, d, err := c.QueryWait(1, ix.i2.Tag, full)
		if err != nil {
			return 0, 0, err
		}
		return float64(len(res.Records)) / float64(okN), d.Seconds(), nil
	}
	hRecall, hLat, err := run(false)
	if err != nil {
		return nil, err
	}
	tRecall, tLat, err := run(true)
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("mode", "post-join_recall", "full_query_latency_s")
	tb.Row("history-pointer (paper)", hRecall, hLat)
	tb.Row("transfer-on-split", tRecall, tLat)
	r.table(tb)
	r.Values["history_recall"] = hRecall
	r.Values["transfer_recall"] = tRecall
	r.notef("both modes preserve recall; the pointer avoids bulk data movement at the cost of " +
		"forwarded sub-queries until the data ages out")
	return r, nil
}
