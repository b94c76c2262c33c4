package main

import (
	"runtime"
	"time"
)

// metric is one reported number. n is its sample count: timings state
// how many operations they summarise, rates and ratios how many units
// they are over.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

type metrics []metric

func (ms *metrics) add(name string, value float64, unit string, n int) {
	*ms = append(*ms, metric{Name: name, Value: value, Unit: unit, N: n})
}

// medians combines the metric sets of a run's repetitions, which list
// the same names in the same order, into one: each value is the median
// over the repetitions, each n the total.
func medians(sets []metrics) metrics {
	out := append(metrics(nil), sets[0]...)
	for i := range out {
		vals := make([]float64, len(sets))
		out[i].N = 0
		for s, set := range sets {
			vals[s] = set[i].Value
			out[i].N += set[i].N
		}
		out[i].Value = quantile(vals, 0.5)
	}
	return out
}

func (ms metrics) get(name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// endToEnd builds the metrics every workload emits under the same
// names; BENCHMARK.json bounds them.
func endToEnd(sp *spec, r *result, setup, heapPerRec float64, storedRecs int) metrics {
	var ms metrics
	head := sp.headline(r)
	ms.add("setup_s", setup, "s", 1)
	ms.add("throughput_per_s", sp.rate(r), "1/s", int(r.units))
	ms.add("latency_p50_us", quantile(head, 0.5)/1e3, "us", len(head))
	ms.add("cpu_us_per_unit", sp.cost(r), "us", int(r.units))
	ms.add("heap_bytes_per_rec", heapPerRec, "B", storedRecs)
	return ms
}

// namedEndToEnd builds the per-workload end-to-end figures under the
// issue's names. A workload that does not run an operation reports 0 for
// it with n=0. They are printed by every run but do not gate: the
// harness applies one bound per metric name across all workloads, so
// only the uniform set above can.
func namedEndToEnd(sp *spec, r *result) metrics {
	var ms metrics
	pct := func(name string, xs []float64, p, div float64, unit string) {
		ms.add(name, quantile(xs, p)/div, unit, len(xs))
	}
	ms.add("failed_frac", ratio(float64(r.failed), float64(r.attempted)), "frac", r.attempted)
	ms.add("ingest_recs_per_s", r.ingestRate, "1/s", int(r.recsAcked))
	ms.add("ops_per_s", ratio(float64(r.ops), r.wall.Seconds()), "1/s", r.ops)
	pct("insert_p50_us", r.lat[opInsert], 0.5, 1e3, "us")
	pct("insert_p99_us", r.lat[opInsert], 0.99, 1e3, "us")
	pct("narrow_query_p50_us", r.lat[opNarrow], 0.5, 1e3, "us")
	pct("narrow_query_p99_us", r.lat[opNarrow], 0.99, 1e3, "us")
	pct("wide_query_p50_ms", r.lat[opWide], 0.5, 1e6, "ms")
	pct("wide_query_p99_ms", r.lat[opWide], 0.99, 1e6, "ms")
	ms.add("result_recs_per_s", ratio(float64(r.resultRecs), r.wall.Seconds()), "1/s", r.resultRecs)
	pct("agg_aligned_p50_ms", r.lat[opAggAligned], 0.5, 1e6, "ms")
	pct("agg_unaligned_p50_ms", r.lat[opAggUnaligned], 0.5, 1e6, "ms")
	pct("frame_ack_p50_ms", r.frameAck, 0.5, 1e6, "ms")
	pct("frame_ack_p99_ms", r.frameAck, 0.99, 1e6, "ms")
	return ms
}

// counterMetrics builds the C-sourced per-layer metrics: deltas of the
// public Stats() snapshots over the untraced phase, and the whole-process
// figures.
func counterMetrics(sp *spec, r *result, perNode []int) metrics {
	var ms metrics
	b, a := r.ctrBefore, r.ctrAfter
	units := int(r.units)
	ms.add("hypercube.hops_per_insert", ratio(float64(r.hops), float64(len(r.lat[opInsert]))), "count", len(r.lat[opInsert]))
	ms.add("mind.forwarded_per_op", ratio(float64(a.forwarded-b.forwarded), r.units), "count", units)
	ms.add("mind.responders_per_query", ratio(float64(r.responders), float64(r.queries)), "count", r.queries)
	ms.add("mind.retransmits", float64(a.retransmits-b.retransmits), "count", units)
	ms.add("mind.dedup_hits", float64(a.dedupHits-b.dedupHits), "count", units)
	ms.add("mind.shed", float64(a.shed-b.shed), "count", units)
	ms.add("mind.batch_occupancy", ratio(float64(a.batchedMsgs-b.batchedMsgs), float64(a.batches-b.batches)), "count", int(a.batches-b.batches))
	ms.add("tcpnet.drops", float64(a.drops-b.drops), "count", units)
	ms.add("tcpnet.reconnects", float64(a.reconnects-b.reconnects), "count", units)
	ms.add("tcpnet.write_timeouts", float64(a.writeTimeouts-b.writeTimeouts), "count", units)
	received := a.ingest.Received - b.ingest.Received
	ms.add("ingest.dropped_ring", float64(a.ingest.DroppedRing-b.ingest.DroppedRing), "count", int(received))
	ms.add("ingest.dropped_pending", float64(a.ingest.DroppedPending-b.ingest.DroppedPending), "count", int(received))
	ms.add("ingest.pool_miss_per_krec", 1000*ratio(float64(a.ingest.PoolMisses-b.ingest.PoolMisses), float64(received)), "count", int(received))
	most, total := 0, 0
	for _, n := range perNode {
		total += n
		most = max(most, n)
	}
	ms.add("store.load_imbalance", ratio(float64(most)*float64(len(perNode)), float64(total)), "ratio", total)
	ms.add("summary.folds", float64(a.folds-b.folds), "count", units)
	ms.add("summary.delta_records_end", float64(a.summaryDelta), "count", total)

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	ms.add("runtime.cpu_us_per_op", sp.cost(r), "us", units)
	ms.add("runtime.allocs_per_op", ratio(float64(r.after.mallocs-r.before.mallocs), r.units), "count", units)
	ms.add("runtime.gc_pause_ms_total", float64(r.after.pauseNS-r.before.pauseNS)/1e6, "ms", int(r.after.numGC-r.before.numGC))
	ms.add("runtime.gc_cycles", float64(r.after.numGC-r.before.numGC), "count", units)
	ms.add("runtime.heap_inuse_mb_end", float64(mem.HeapInuse)/(1<<20), "MB", 1)
	ms.add("loadgen.lag_p99_ms", quantile(r.lag, 0.99)/1e6, "ms", len(r.lag))
	return ms
}

// traceMetrics builds the T-sourced per-layer metrics from the traced
// phase r and its span totals.
func traceMetrics(r *result, tt traceTotals) metrics {
	var ms metrics
	units := int(r.units)
	var calls, busy int64
	for g := 0; g < numGroups; g++ {
		calls += tt.handleCalls[g]
		busy += tt.handleNS[g]
	}
	for g, name := range []string{"insert", "query", "agg", "resp"} {
		ms.add("mind.handle_us_per_op."+name, ratio(float64(tt.handleNS[g])/1e3, r.units), "us", int(tt.handleCalls[g]))
	}
	ms.add("mind.msgs_per_op", ratio(float64(calls), r.units), "count", int(calls))
	ms.add("mind.busy_frac", ratio(float64(busy), float64(r.wall.Nanoseconds())*float64(runtime.GOMAXPROCS(0))), "frac", int(calls))
	ms.add("hypercube.overlay_msgs_per_s", ratio(float64(tt.handleCalls[groupOverlay]), r.wall.Seconds()), "1/s", int(tt.handleCalls[groupOverlay]))
	sends := len(tt.sendNS)
	ms.add("tcpnet.send_call_us_p50", quantile(tt.sendNS, 0.5)/1e3, "us", sends)
	ms.add("tcpnet.send_call_us_p99", quantile(tt.sendNS, 0.99)/1e3, "us", sends)
	ms.add("tcpnet.sends_per_op", ratio(float64(sends), r.units), "count", units)
	ms.add("tcpnet.bytes_per_op", ratio(float64(tt.sendBytes), r.units), "B", units)
	ms.add("ingest.insert_batch_call_us", ratio(float64(tt.batchCallNS)/1e3, float64(tt.batchCalls)), "us", int(tt.batchCalls))
	ms.add("ingest.batch_ack_ms_p50", quantile(tt.batchAckNS, 0.5)/1e6, "ms", len(tt.batchAckNS))
	ms.add("ingest.batch_ack_ms_p99", quantile(tt.batchAckNS, 0.99)/1e6, "ms", len(tt.batchAckNS))
	ms.add("ingest.batch_size_mean", ratio(float64(tt.batchRecs), float64(tt.batchCalls)), "count", int(tt.batchCalls))
	return ms
}

// budget sets the isolation figures, times how often each is paid per
// unit of work, against the end-to-end cost of that unit: CPU per record
// on the two ingest workloads (both cores are busy, so CPU is what a
// saving buys), mean latency per operation on the two closed-loop query
// workloads (the cores are mostly idle, so the blocking chain is). What
// the sum does not explain is the residual.
func budget(sp *spec, r *result, iso, cm metrics, wideResults float64) (explained float64) {
	oneway, big := iso.get("tcpnet.oneway_us_small")*1e3, iso.get("tcpnet.oneway_us_64k")*1e3
	insertWork := iso.get("embed.pointcode_ns") + iso.get("mind.local_insert_ns_per_rec") + iso.get("store.insert_ns_per_rec") + iso.get("summary.insert_ns_per_rec")
	var ns, total float64
	if sp.perRecord {
		// Parse, ring, hash and route once; store at the owner and at one
		// replica; the forwarded share pays an Insert and an InsertAck
		// codec, every record a Replicate codec (about half of that).
		ns = iso.get("wire.flowframe_parse_ns_per_rec") + iso.get("ingest.engine_ns_per_rec") + insertWork + iso.get("store.insert_ns_per_rec") +
			(cm.get("mind.forwarded_per_op")+0.5)*iso.get("wire.insert_codec_ns")
		total = sp.cost(r) * 1e3
	} else {
		var all float64
		for _, xs := range r.lat {
			for _, x := range xs {
				all += x
			}
		}
		total = ratio(all, float64(r.ops))
		insert := iso.get("wire.insert_codec_ns") + 2*oneway + cm.get("hypercube.hops_per_insert")*(2*oneway+iso.get("wire.insert_codec_ns")) + insertWork
		narrow := iso.get("wire.query_codec_ns") + 4*oneway + iso.get("hypercube.nexthop_ns") + iso.get("embed.decompose_narrow_ns") + iso.get("mind.local_query_ns") + iso.get("store.query_narrow_ns")
		wide := iso.get("wire.query_codec_ns") + 2*oneway + 2*big + iso.get("embed.decompose_wide_ns") + iso.get("store.query_wide_us")*1e3 + 2*iso.get("wire.resp_codec_ns_per_rec")*wideResults
		agg := func(resolveUS float64) float64 { return iso.get("wire.query_codec_ns") + 4*oneway + resolveUS*1e3 }
		ns = ratio(float64(len(r.lat[opInsert]))*insert+
			float64(len(r.lat[opNarrow])+len(r.lat[opReadYourWrite]))*narrow+
			float64(len(r.lat[opWide]))*wide+
			float64(len(r.lat[opAggAligned]))*agg(iso.get("summary.resolve_aligned_us"))+
			float64(len(r.lat[opAggUnaligned]))*agg(iso.get("summary.resolve_unaligned_us")), float64(r.ops))
	}
	return ratio(ns, total)
}

// report is one workload's outcome.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Digest    string   `json:"input_digest"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Notes     []string `json:"notes,omitempty"`
	EndToEnd  metrics  `json:"end_to_end,omitempty"`
	PerLayer  metrics  `json:"per_layer,omitempty"`
	// Named is the issue-named end-to-end set of an untraced run; a traced
	// run carries the same names inside PerLayer.
	Named   metrics `json:"named_end_to_end,omitempty"`
	digest  digest  // folds the digests of every input set the run generated
	elapsed time.Duration
}
