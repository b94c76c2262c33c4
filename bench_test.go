// Package bench holds the top-level benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (each runs
// the corresponding experiment end-to-end and reports its headline
// metrics), the ablation benches called out in DESIGN.md, and
// micro-benchmarks of the core insert/query paths on a standing cluster.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-figure experiments are deterministic for a fixed seed, so the
// reported custom metrics (medians, fractions, ratios) are stable; the
// ns/op numbers measure the harness's own simulation cost.
package bench

import (
	"testing"
	"time"

	"mind/internal/cluster"
	"mind/internal/experiments"
	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/store"
	"mind/internal/summary"
	"mind/internal/transport/simnet"
)

const benchSeed = 20050405

// benchScale keeps each figure regeneration to a few seconds; raise it
// (≤1.0) for paper-scale runs via cmd/mindbench.
const benchScale = 0.05

// runExperiment executes one experiment per benchmark iteration and
// republishes its headline values as benchmark metrics.
func runExperiment(b *testing.B, id string, metricsOut []string) {
	b.Helper()
	var last *experiments.Report
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, benchSeed+int64(i), benchScale)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		last = rep
	}
	for _, m := range metricsOut {
		if v, ok := last.Values[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

func BenchmarkFig1Aggregation(b *testing.B) {
	runExperiment(b, "fig1", []string{"reduction_w30_t50"})
}

func BenchmarkFig2StorageSkew(b *testing.B) {
	runExperiment(b, "fig2", []string{"imbalance_index1", "imbalance_index2"})
}

func BenchmarkFig3Stationarity(b *testing.B) {
	runExperiment(b, "fig3", []string{"day_mismatch_k2", "hour_mismatch_k2"})
}

func BenchmarkFig7InsertLatency(b *testing.B) {
	runExperiment(b, "fig7", []string{"median_overall"})
}

func BenchmarkFig8SlowLink(b *testing.B) {
	runExperiment(b, "fig8", []string{"worst_link_max_s"})
}

func BenchmarkFig9QueryCost(b *testing.B) {
	runExperiment(b, "fig9", []string{"frac_le_4"})
}

func BenchmarkFig10QueryLatency(b *testing.B) {
	runExperiment(b, "fig10", []string{"median_s", "p90_s"})
}

func BenchmarkFig11OutageHotspot(b *testing.B) {
	runExperiment(b, "fig11", []string{"during_max_s", "before_median_s"})
}

func BenchmarkFig12LinkTraffic(b *testing.B) {
	runExperiment(b, "fig12", []string{"max_link_frac_of_inserts"})
}

func BenchmarkFig13Balance(b *testing.B) {
	runExperiment(b, "fig13", []string{"uniform_imbalance_i1", "balanced_imbalance_i1"})
}

func BenchmarkFig14LargeScaleInsert(b *testing.B) {
	runExperiment(b, "fig14", []string{"median_s"})
}

func BenchmarkFig15HopCounts(b *testing.B) {
	runExperiment(b, "fig15", []string{"insert_hops_le5", "query_nodes_le5"})
}

func BenchmarkFig16Robustness(b *testing.B) {
	runExperiment(b, "fig16", []string{"one_15", "none_50", "full_50"})
}

func BenchmarkTable17Anomaly(b *testing.B) {
	runExperiment(b, "table17", []string{"recall", "avg_response_s"})
}

// Ablation benches (DESIGN.md §5).

func BenchmarkAblationCuts(b *testing.B) {
	runExperiment(b, "ablation-cuts", []string{"uniform_imbalance", "balanced_imbalance"})
}

func BenchmarkAblationCutOrder(b *testing.B) {
	runExperiment(b, "ablation-cutorder", nil)
}

func BenchmarkAblationHistGranularity(b *testing.B) {
	runExperiment(b, "ablation-hist", []string{"imbalance_k2", "imbalance_k16"})
}

func BenchmarkAblationStore(b *testing.B) {
	runExperiment(b, "ablation-store", []string{"kd_speedup"})
}

func BenchmarkAblationArchitectures(b *testing.B) {
	runExperiment(b, "ablation-arch", []string{"mind_nodes", "flood_nodes"})
}

func BenchmarkAblationHistoryPointer(b *testing.B) {
	runExperiment(b, "ablation-history", []string{"history_recall", "transfer_recall"})
}

func BenchmarkAblationRecovery(b *testing.B) {
	runExperiment(b, "ablation-recovery", []string{"on_complete", "off_complete"})
}

// --- core-path micro benchmarks on a standing cluster --------------------

func benchCluster(b *testing.B, n int) (*cluster.Cluster, *schema.Schema) {
	b.Helper()
	sch := &schema.Schema{
		Tag: "bench",
		Attrs: []schema.Attr{
			{Name: "x", Kind: schema.KindUint, Max: 1 << 32},
			{Name: "t", Kind: schema.KindTime, Max: 86400},
			{Name: "y", Kind: schema.KindUint, Max: 1 << 20},
			{Name: "p"},
		},
		IndexDims: 3,
	}
	c, err := cluster.New(cluster.Options{
		N:    n,
		Seed: benchSeed,
		Sim:  simnet.Config{Seed: benchSeed, DefaultLatency: 5 * time.Millisecond},
		Node: mind.DefaultConfig(benchSeed),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.CreateIndex(sch); err != nil {
		b.Fatal(err)
	}
	c.Settle(3 * time.Second)
	return c, sch
}

// BenchmarkInsertPath measures end-to-end routed insertion on a 32-node
// overlay (simulation cost per insert, including all protocol work).
func BenchmarkInsertPath(b *testing.B) {
	c, sch := benchCluster(b, 32)
	rng := uint64(1)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := schema.Record{next() % (1 << 32), next() % 86400, next() % (1 << 20), uint64(i)}
		res, _, err := c.InsertWait(i%32, sch.Tag, rec)
		if err != nil || !res.OK {
			b.Fatalf("insert: %v %+v", err, res)
		}
	}
}

// BenchmarkInsertBatched measures the batched insert pipeline on the
// same 32-node overlay under the default config: records enter in groups
// of 32 via InsertBatch, every hop forwards, replicates and acks one
// envelope per peer, and the benchmark reports transport sends per
// record next to the per-record path's cost.
func BenchmarkInsertBatched(b *testing.B) {
	c, sch := benchCluster(b, 32)
	rng := uint64(1)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	const group = 32
	sendsBase := c.Net.Stats().Sent
	records := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs := make([]schema.Record, group)
		for j := range recs {
			recs[j] = schema.Record{next() % (1 << 32), next() % 86400, next() % (1 << 20), uint64(records + j)}
		}
		res, _, err := c.InsertBatchWait(i%32, sch.Tag, recs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if !r.OK {
				b.Fatalf("batched insert failed: %+v", r)
			}
		}
		records += group
	}
	b.StopTimer()
	if records > 0 {
		sends := c.Net.Stats().Sent - sendsBase
		b.ReportMetric(float64(sends)/float64(records), "sends/record")
		b.ReportMetric(float64(records)/float64(b.N), "records/op")
	}
}

// BenchmarkQueryPath measures end-to-end decomposed range queries on a
// 32-node overlay preloaded with 20k records.
func BenchmarkQueryPath(b *testing.B) {
	c, sch := benchCluster(b, 32)
	rng := uint64(7)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 20000; i++ {
		rec := schema.Record{next() % (1 << 32), next() % 86400, next() % (1 << 20), uint64(i)}
		if err := c.Nodes[i%32].Insert(sch.Tag, rec, nil); err != nil {
			b.Fatal(err)
		}
		if i%500 == 0 {
			// Drain in-flight inserts; the event queue never fully
			// empties (heartbeats), so advance virtual time instead.
			c.Settle(time.Second)
		}
	}
	c.Settle(5 * time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := next() % 86100
		q := schema.Rect{
			Lo: []uint64{0, lo, 0},
			Hi: []uint64{1 << 32, lo + 300, 1 << 20},
		}
		res, _, err := c.QueryWait(i%32, sch.Tag, q)
		if err != nil || !res.Complete {
			b.Fatalf("query %d incomplete: %v %+v", i, err, res)
		}
	}
}

// BenchmarkAggBoundaryFold measures one node's share of an unaligned
// aggregate: 37,500 Index-2 records of one day over 4,096 destination
// prefixes (an eighth of the benchmark module's scan_agg preload) in a
// default store shard with its lockstep summary. The loop is the shipped
// path (mind.resolveLocalAgg's calls): summary.ResolveShard over the
// store visitor, closed by Agg.MergeShards, at the requested top-8. Two
// shapes:
//
//   - window: every destination and octet count over 6 h starting off
//     the summary's 22.5-minute time cells, so the boundary is the two
//     cells the window's edges cut and the rest is rollup cover;
//   - prefix: one /8 over the same 6 h, narrower than any rollup cell on
//     the destination axis, so every record it matches is boundary.
func BenchmarkAggBoundaryFold(b *testing.B) {
	sch := schema.Index2(86400)
	eng := store.NewSharded(sch, store.Options{})
	sum := summary.New(sch, summary.Options{})
	rng := uint64(11)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 37500; i++ {
		prefix := (next() % 4096 * 0x9E3779B1) & 0xffffff00
		rec := schema.Record{prefix, next() % 86400, next() % (1 << 20), next() % (1 << 32), next() % 64}
		eng.Insert(rec)
		sum.Insert(rec)
	}
	eng.Compact()
	sum.Fold()
	bounds := sch.Bounds()
	visit := func(cell schema.Rect, fn func([]uint64, []int32)) { eng.VisitShardBatches(0, cell, fn) }
	window := func() (lo, hi uint64) {
		lo = next() % (18 * 3600) / 30 * 30 // 30 s windows, as the aggregator emits
		if lo%1350 == 0 {
			lo += 30 // keep it off the 22.5-minute cell edges
		}
		return lo, lo + 6*3600
	}
	for _, shape := range []struct {
		name string
		rect func() schema.Rect
	}{
		{"window", func() schema.Rect {
			lo, hi := window()
			return schema.Rect{Lo: []uint64{0, lo, 0}, Hi: []uint64{bounds[0], hi, bounds[2]}}
		}},
		{"prefix", func() schema.Rect {
			p := next() % 256 << 24
			lo, hi := window()
			return schema.Rect{Lo: []uint64{p, lo, 0}, Hi: []uint64{p | 0xffffff, hi, bounds[2]}}
		}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			folded, matched := uint64(0), uint64(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rect := shape.rect()
				out := summary.NewAgg(sch.Arity(), 8)
				fold := summary.GetFold(sch.Arity())
				cover := summary.ResolveShard(sum, rect, visit, fold)
				folded += fold.Count - cover.N()
				out.MergeShards([]*summary.Sketch{cover}, fold)
				summary.PutFold(fold)
				matched += out.Count
			}
			if matched == 0 {
				b.Fatal("every aggregate was empty")
			}
			b.ReportMetric(float64(folded)/float64(b.N), "boundary-recs/op")
		})
	}
}

// BenchmarkJoinProtocol measures the full join handshake cost as the
// overlay grows to 64 nodes.
func BenchmarkJoinProtocol(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.Options{
			N:    64,
			Seed: benchSeed + int64(i),
			Sim:  simnet.Config{Seed: benchSeed + int64(i), DefaultLatency: 5 * time.Millisecond},
			Node: mind.DefaultConfig(benchSeed),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !c.AllJoined() {
			b.Fatal("not all joined")
		}
	}
}
