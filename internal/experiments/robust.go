package experiments

import (
	"fmt"
	"time"

	"mind/internal/cluster"
	"mind/internal/flowgen"
	"mind/internal/metrics"
	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/transport/simnet"
)

// Fig16 reproduces the robustness experiment (§4.4): a 102-node local
// cluster holding Index-1 data at replication levels 0, 1 and "full"
// (one replica per hypercube neighbor level); random nodes are failed in
// increments and the fraction of successfully completed queries is
// measured after each increment.
//
// Shape to reproduce: without replication success decays roughly
// linearly with failures; with one replica the system rides out ~15% of
// failures; with full replication it survives beyond 50%.
func Fig16(seed int64, scale float64) (*Report, error) {
	r := newReport("fig16", "Query success vs node failures at replication 0 / 1 / full")
	fracs := []float64{0, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50}
	levels := []struct {
		name string
		m    int
	}{
		{"none", 0},
		{"one", 1},
		{"full", mind.ReplicateAll},
	}
	tb := metrics.NewTable("failed_frac", "success_none", "success_one", "success_full")
	results := make(map[string][]float64)

	for _, lv := range levels {
		success, err := fig16Level(seed, scale, lv.m)
		if err != nil {
			return nil, err
		}
		results[lv.name] = success
	}
	for i, f := range fracs {
		tb.Row(f, results["none"][i], results["one"][i], results["full"][i])
		r.Values[fmt.Sprintf("none_%d", int(f*100))] = results["none"][i]
		r.Values[fmt.Sprintf("one_%d", int(f*100))] = results["one"][i]
		r.Values[fmt.Sprintf("full_%d", int(f*100))] = results["full"][i]
	}
	r.table(tb)
	r.notef("paper: no replication decays ~linearly; one replica survives 15%% failures; full "+
		"replication survives >50%%. measured at 15%%: none %.2f, one %.2f, full %.2f",
		r.Values["none_15"], r.Values["one_15"], r.Values["full_15"])
	return r, nil
}

// fig16Level runs the kill-escalation for one replication level and
// returns the success fraction at each failure step. A query succeeds
// when it completes AND returns exactly the records an oracle over the
// full inserted set predicts — i.e. no data was lost to the failures.
// All three levels use identical overlay construction, workload and kill
// sequence, so the curves differ only in the replication policy.
func fig16Level(seed int64, scale float64, repl int) ([]float64, error) {
	n := 102
	routers := fabricateRouters(n)
	nodeCfg := nodeConfig(seed)
	nodeCfg.Replication = repl
	nodeCfg.QueryTimeout = 15 * time.Second
	c, err := cluster.New(cluster.Options{
		Routers: routers,
		Seed:    seed,
		Sim: simnet.Config{
			Seed:           seed,
			DefaultLatency: 2 * time.Millisecond, // local cluster, per §4.4
			ServiceTime:    2 * time.Millisecond,
		},
		Node: nodeCfg,
	})
	if err != nil {
		return nil, err
	}
	ix := paperIndices(86400 * 4)
	if err := c.CreateIndex(ix.i1); err != nil {
		return nil, err
	}
	c.Settle(10 * time.Second)

	// Insert the Index-1 workload quickly (latency is not measured here)
	// and keep the acked records as the recall oracle.
	wallStart := uint64(10 * 3600)
	dur := uint64(1200 * scale)
	if dur < 600 {
		dur = 600
	}
	gcfg := flowgen.DefaultConfig(seed + 5)
	gcfg.Routers = routers
	gcfg.BaseFlowsPerSec = 60 * scale
	if gcfg.BaseFlowsPerSec < 20 {
		gcfg.BaseFlowsPerSec = 20
	}
	g := flowgen.New(gcfg)
	recs := buildWorkload(g, wallStart, wallStart+dur, ix, true, false, false)
	samples := driveInserts(c, recs, wallStart)
	var oracle []schema.Record
	for i, s := range samples {
		if s.ok {
			oracle = append(oracle, recs[i].rec)
		}
	}
	c.Settle(5 * time.Second)

	// Failure escalation: 0%, 5%, ..., 50%. A deterministic shuffle
	// picks victims; settles between increments let detection (including
	// the liveness-probe confirmation round) and sibling takeover run,
	// as gradual failures would in a deployment.
	rng := xorshift(uint64(seed)*31 + 40503)
	perm := make([]int, n-1)
	for i := range perm {
		perm[i] = i + 1 // never kill node 0: it is the query origin pool seed
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	fracs := []float64{0, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50}
	killed := 0
	var success []float64
	queriesPer := int(45 * scale)
	if queriesPer < 20 {
		queriesPer = 20
	}
	failAfter := nodeCfg.Overlay.FailAfter
	for _, f := range fracs {
		want := int(f * float64(n))
		for killed < want {
			c.Kill(perm[killed])
			killed++
		}
		// Detection takes up to 2×FailAfter (silence + liveness-probe
		// confirmation); cascaded takeovers and relocations need several
		// rounds at high failure fractions. Settle until the live codes
		// tile the space again (the overlay's own stabilization), with a
		// bound.
		c.Settle(6*failAfter + 10*time.Second)
		for round := 0; round < 12; round++ {
			tile := 0.0
			for _, nd := range c.Nodes {
				if !c.Net.IsDead(nd.Addr()) {
					tile += 1 / float64(uint64(1)<<uint(nd.Code().Len()))
				}
			}
			if tile > 0.9999 {
				break
			}
			c.Settle(4 * failAfter)
		}

		ok, total := 0, 0
		for q := 0; q < queriesPer; q++ {
			from := int(rng.next() % uint64(n))
			for c.Net.IsDead(c.Nodes[from].Addr()) {
				from = (from + 1) % n
			}
			// §4.1's query mix: uniformly sized destination range,
			// fanout above a varying floor, the run's time window —
			// selective enough that each query touches a handful of
			// regions (per-query success then reflects the availability
			// of exactly those regions, the paper's Fig 16 semantics),
			// yet dense enough to hit stored data.
			a, b := rng.next()%(1<<32), rng.next()%(1<<32)
			if a > b {
				a, b = b, a
			}
			floor := 16 + rng.next()%32
			rect := schema.Rect{
				Lo: []uint64{a, wallStart, floor},
				Hi: []uint64{b, wallStart + dur, schema.FanoutBound},
			}
			want := 0
			for _, rec := range oracle {
				if rect.ContainsRecord(ix.i1, rec) {
					want++
				}
			}
			res, _, err := c.QueryWait(from, ix.i1.Tag, rect)
			if err != nil {
				continue
			}
			total++
			if res.Complete && len(res.Records) == want {
				ok++
			}
		}
		if total == 0 {
			success = append(success, 0)
		} else {
			success = append(success, float64(ok)/float64(total))
		}
	}
	return success, nil
}

// rectFor builds one §4.1-style query rectangle: uniform random ranges
// on every attribute except the timestamp, which covers the last five
// minutes.
func rectFor(spec querySpec, now uint64, rnd func() uint64) schema.Rect {
	rect := schema.Rect{Lo: make([]uint64, len(spec.bounds)), Hi: make([]uint64, len(spec.bounds))}
	for d := range spec.bounds {
		if d == spec.timeAt {
			lo := uint64(0)
			if now > 300 {
				lo = now - 300
			}
			rect.Lo[d], rect.Hi[d] = lo, now
			continue
		}
		a, b := rnd()%(spec.bounds[d]+1), rnd()%(spec.bounds[d]+1)
		if a > b {
			a, b = b, a
		}
		rect.Lo[d], rect.Hi[d] = a, b
	}
	return rect
}
