// Anomaly hunt (§5): reproduce the paper's drill-down workflow on an
// 11-node overlay congruent to the Abilene backbone. Traffic with six
// injected anomalies (three alpha flows, two DoS floods, one port scan)
// is indexed; an independent off-line centralized detector provides the
// ground truth; then MIND queries circumscribing each anomaly are issued
// from every node, reporting result-set sizes, recall, response times
// and — the paper's §5 payoff — the exact set of backbone routers each
// anomaly traversed.
//
//	go run ./examples/anomalyhunt
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"mind/internal/aggregate"
	"mind/internal/cluster"
	"mind/internal/detect"
	"mind/internal/flowgen"
	"mind/internal/metrics"
	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/topo"
	"mind/internal/transport/simnet"
)

func main() {
	routers := topo.AbileneRouters()
	c, err := cluster.New(cluster.Options{
		Routers: routers,
		Seed:    17,
		Sim: simnet.Config{
			Seed:        17,
			Latency:     topo.LatencyFunc(routers, topo.Addr, 10*time.Millisecond),
			ServiceTime: 5 * time.Millisecond,
		},
		Node: mind.DefaultConfig(17),
	})
	if err != nil {
		log.Fatal(err)
	}
	horizon := uint64(86400)
	idx1, idx2 := schema.Index1(horizon), schema.Index2(horizon)
	for _, sch := range []*schema.Schema{idx1, idx2} {
		if err := c.CreateIndex(sch); err != nil {
			log.Fatal(err)
		}
	}

	// ~25 minutes of Abilene traffic with the standard §5 anomaly mix.
	start := uint64(13 * 3600)
	gcfg := flowgen.DefaultConfig(17)
	gcfg.Routers = routers
	gcfg.BaseFlowsPerSec = 15
	g := flowgen.New(gcfg)
	truth := g.StandardAnomalies(start)

	det := detect.New()
	inserted := 0
	w := aggregate.NewWindower(aggregate.Config{WindowSec: 30}, func(ws uint64, aggs []*aggregate.Agg) {
		for _, a := range aggs {
			if rec, ok := aggregate.Index1Record(ws, a); ok {
				if res, _, _ := c.InsertWait(a.Key.Node, idx1.Tag, rec); res.OK {
					inserted++
				}
			}
			if rec, ok := aggregate.Index2Record(ws, a); ok {
				if res, _, _ := c.InsertWait(a.Key.Node, idx2.Tag, rec); res.OK {
					inserted++
				}
			}
		}
	})
	g.Generate(start, start+25*60, func(f flowgen.Flow) {
		det.Add(f)
		w.Add(f)
	})
	w.Flush()
	events := det.Finish()
	fmt.Printf("indexed %d records; off-line detector found %d events (recall vs ground truth: %.0f%%)\n\n",
		inserted, len(events), 100*detect.Recall(events, truth, detect.WindowSec))

	fmt.Println("anomaly        time   index          result  recalled  avg_resp  monitors")
	fmt.Println("-------        ----   -----          ------  --------  --------  --------")
	for _, a := range truth {
		idx2Query := a.Kind == flowgen.AlphaFlow || a.Kind == flowgen.PortAbuse
		tag := idx1.Tag
		if idx2Query {
			tag = idx2.Tag
		}
		rect := a.GroundTruthRect(idx2Query, horizon)

		lat := metrics.NewDist()
		size := 0
		recalled := false
		monitors := map[uint64]bool{}
		for from := range c.Nodes {
			res, d, err := c.QueryWait(from, tag, rect)
			if err != nil || !res.Complete {
				continue
			}
			lat.AddDuration(d)
			size = len(res.Records)
			for _, rec := range res.Records {
				if rec[0] == a.DstPrefix && rec[3] == a.SrcPrefix {
					recalled = true
					monitors[rec[4]] = true
				}
			}
		}
		var names []string
		var ids []int
		for id := range monitors {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		for _, id := range ids {
			names = append(names, routers[id].Name)
		}
		fmt.Printf("%-14s +%2dm   %-14s %5d   %-8v  %.2fs     %s\n",
			a.Kind, (a.Start-start)/60, tag, size, recalled, lat.Mean(), strings.Join(names, ","))
	}
	fmt.Println("\nthe monitor sets reconstruct each anomaly's path through the backbone (§5's DoS example)")
}
