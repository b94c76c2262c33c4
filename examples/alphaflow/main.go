// Alpha-flow monitoring with Index-2 plus daily re-balancing (§3.7):
// a 16-node MIND deployment ingests a day of aggregated traffic under
// uniform cuts, every node reports its local histogram to the designated
// node, balanced cuts are computed and installed for the next version,
// and day two's storage distribution flattens out — while the paper's
// alpha-flow query keeps finding the injected large transfers.
//
//	go run ./examples/alphaflow
package main

import (
	"fmt"
	"log"
	"time"

	"mind/internal/aggregate"
	"mind/internal/cluster"
	"mind/internal/flowgen"
	"mind/internal/metrics"
	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/transport/simnet"
)

func main() {
	cfg := mind.DefaultConfig(11)
	cfg.HistCollectWait = 5 * time.Second
	c, err := cluster.New(cluster.Options{
		N:    16,
		Seed: 11,
		Sim:  simnet.Config{Seed: 11, DefaultLatency: 5 * time.Millisecond},
		Node: cfg,
	})
	if err != nil {
		log.Fatal(err)
	}
	idx2 := schema.Index2(86400 * 4)
	if err := c.CreateIndex(idx2); err != nil {
		log.Fatal(err)
	}

	gcfg := flowgen.DefaultConfig(11)
	gcfg.BaseFlowsPerSec = 4
	g := flowgen.New(gcfg)
	g.Inject(flowgen.Anomaly{
		Kind: flowgen.AlphaFlow, Start: 86400 + 7200, Duration: 120,
		SrcPrefix: flowgen.SrcPrefix(42), DstPrefix: flowgen.DstPrefix(3),
		DstPort: 443, Routers: []int{5}, Intensity: 90_000_000,
	})

	insertDay := func(from, to uint64) int {
		n := 0
		w := aggregate.NewWindower(aggregate.Config{WindowSec: 30}, func(ws uint64, aggs []*aggregate.Agg) {
			for _, a := range aggs {
				if rec, ok := aggregate.Index2Record(ws, a); ok {
					res, _, err := c.InsertWait(a.Key.Node%16, idx2.Tag, rec)
					if err != nil || !res.OK {
						log.Fatalf("insert: %v %+v", err, res)
					}
					n++
				}
			}
		})
		g.Generate(from, to, func(f flowgen.Flow) { w.Add(f) })
		w.Flush()
		return n
	}
	report := func(label string, version uint32) float64 {
		d := metrics.NewDist()
		for _, nd := range c.Nodes {
			d.Add(float64(nd.StoredRecordsVersion(idx2.Tag, version)))
		}
		ratio := d.Max() / d.Mean()
		fmt.Printf("%s: per-node records max=%.0f mean=%.1f imbalance=%.1fx\n",
			label, d.Max(), d.Mean(), ratio)
		return ratio
	}

	// Day 1 (version 0): uniform cuts.
	n1 := insertDay(0, 4*3600) // a compressed "day" of traffic
	fmt.Printf("day 1: %d records inserted under uniform cuts\n", n1)
	u := report("day 1 (uniform cuts)", 0)

	// Nightly re-balancing: every node reports its version-0 histogram;
	// the designated node merges them and floods balanced cuts for
	// version 1 (§3.7).
	for _, nd := range c.Nodes {
		if err := nd.ReportHistogram(idx2.Tag, 0, 12); err != nil {
			log.Fatal(err)
		}
	}
	c.Settle(30 * time.Second)

	// Day 2 (version 1): same traffic shape, balanced cuts.
	n2 := insertDay(86400, 86400+4*3600)
	fmt.Printf("day 2: %d records inserted under balanced cuts\n", n2)
	b := report("day 2 (balanced cuts)", 1)
	fmt.Printf("balance improvement: %.1fx → %.1fx\n\n", u, b)

	// The §5 alpha-flow query over the day-2 window containing the
	// injected transfer.
	q := schema.Rect{
		Lo: []uint64{0, 86400 + 7200 - 60, 2_000_000},
		Hi: []uint64{0xffffffff, 86400 + 7200 + 300, schema.OctetsBound},
	}
	res, lat, err := c.QueryWait(3, idx2.Tag, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alpha-flow query: complete=%v in %v, %d records\n", res.Complete, lat, len(res.Records))
	for _, rec := range res.Records {
		fmt.Printf("  %s → %s octets=%d monitor=%d\n",
			schema.FormatIPv4(rec[3]), schema.FormatIPv4(rec[0]), rec[2], rec[4])
	}
}
