package experiments

import (
	"runtime"
	"sync"
	"time"

	"mind/internal/metrics"
	"mind/internal/schema"
	"mind/internal/store"
)

// StoreLayout measures the store engine's per-layout throughput on one
// machine: bulk load, insert and query rates of the sharded ladder
// engine against the pointer k-d tree and the linear scan, over
// Index-2-shaped records and the §4.1 selective window queries. The
// headline is query records/sec/core — the per-core read bandwidth the
// leaf-bucketed arena layout buys, which is what per-core sharding
// multiplies across a machine.
//
// Like ingest-stream this experiment runs on the wall clock, so every
// load-dependent value carries the rt_ prefix the bench-gate comparator
// treats with wide tolerance. The differential oracle_ok value is exact
// and gated: every sampled query must agree with the scan oracle.
func StoreLayout(seed int64, scale float64) (*Report, error) {
	r := newReport("store-layout", "Store engine layouts: bulk load, insert, query records/sec/core (real-time)")

	n := int(400_000 * scale)
	if n < 20_000 {
		n = 20_000
	}
	queries := n / 50
	horizon := uint64(7 * 86400)
	sch := schema.Index2(horizon)
	bounds := sch.Bounds()

	// Deterministic Index-2-shaped records: uniform in every indexed
	// attribute, so selectivity of the window rects below is predictable.
	rnd := xorshift(uint64(seed)*2654435761 + 1)
	mkRec := func() schema.Record {
		rec := make(schema.Record, len(sch.Attrs))
		for i := range rec {
			if i < len(bounds) {
				rec[i] = rnd.next() % (bounds[i] + 1)
			} else {
				rec[i] = rnd.next()
			}
		}
		return rec
	}
	recs := make([]schema.Record, n)
	for i := range recs {
		recs[i] = mkRec()
	}

	// Selective window rects (~1% per dimension), the §4.1 monitoring
	// query shape: cost is traversal, not result materialization.
	rects := make([]schema.Rect, 256)
	for i := range rects {
		rc := schema.Rect{Lo: make([]uint64, len(bounds)), Hi: make([]uint64, len(bounds))}
		for d := range bounds {
			w := bounds[d]/100 + 1
			lo := rnd.next() % (bounds[d] - w + 1)
			rc.Lo[d], rc.Hi[d] = lo, lo+w
		}
		rects[i] = rc
	}

	cores := runtime.GOMAXPROCS(0)

	// Build each layout, timing the population path that layout uses in
	// production: streamed inserts for kd and sharded (the engine merges
	// as it goes), one bulk load for static.
	sc := store.NewScan(sch)
	for _, rec := range recs {
		sc.Insert(rec)
	}

	kd := store.NewKD(sch)
	kdStart := time.Now()
	for _, rec := range recs {
		kd.Insert(rec)
	}
	kdInsert := time.Since(kdStart)

	shardOpts := store.Options{Shards: cores}
	sh := store.NewSharded(sch, shardOpts)
	shStart := time.Now()
	for _, rec := range recs {
		sh.Insert(rec)
	}
	shInsert := time.Since(shStart)

	blStart := time.Now()
	static := store.NewStatic(sch, recs)
	bulkLoad := time.Since(blStart)
	sh.Compact() // steady-state layout: one level per shard

	// Differential gate before timing: the layouts must agree with the
	// oracle on every sampled rect.
	oracleOK := 1.0
	for _, rc := range rects[:32] {
		want := sc.Count(rc)
		if kd.Count(rc) != want || sh.Count(rc) != want || static.Count(rc) != want {
			oracleOK = 0
		}
	}

	// Query throughput: GOMAXPROCS readers splitting a fixed query
	// budget, reporting aggregate queries/sec and result records/sec,
	// normalized per core.
	type queryable interface {
		Query(schema.Rect) []schema.Record
	}
	run := func(st queryable) (qps, rps float64) {
		var wg sync.WaitGroup
		var recsOut int64
		var mu sync.Mutex
		per := queries / cores
		if per < 1 {
			per = 1
		}
		start := time.Now()
		for w := 0; w < cores; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				local := 0
				for q := 0; q < per; q++ {
					local += len(st.Query(rects[(w*per+q)%len(rects)]))
				}
				mu.Lock()
				recsOut += int64(local)
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		el := time.Since(start).Seconds()
		total := float64(per * cores)
		return total / el / float64(cores), float64(recsOut) / el / float64(cores)
	}

	shQPS, shRPS := run(sh)
	kdQPS, kdRPS := run(kd)
	stQPS, _ := run(static)
	scQPS, _ := run(sc)

	t := metrics.NewTable("layout", "populate(s)", "queries/s/core", "result recs/s/core")
	t.Row("scan", "-", int(scQPS), "-")
	t.Row("kd-pointer", kdInsert.Seconds(), int(kdQPS), int(kdRPS))
	t.Row("static-arena", bulkLoad.Seconds(), int(stQPS), "-")
	t.Row("sharded-ladder", shInsert.Seconds(), int(shQPS), int(shRPS))
	r.table(t)

	r.Values["oracle_ok"] = oracleOK
	r.Values["store_shards"] = float64(sh.NumShards())
	r.Values["static_frac"] = sh.StaticFrac()
	r.Values["rt_sharded_query_per_sec_core"] = shQPS
	r.Values["rt_sharded_result_recs_per_sec_core"] = shRPS
	r.Values["rt_kd_query_per_sec_core"] = kdQPS
	r.Values["rt_kd_result_recs_per_sec_core"] = kdRPS
	r.Values["rt_static_query_per_sec_core"] = stQPS
	r.Values["rt_scan_query_per_sec_core"] = scQPS
	r.Values["rt_bulkload_recs_per_sec"] = float64(n) / bulkLoad.Seconds()
	r.Values["rt_sharded_insert_per_sec"] = float64(n) / shInsert.Seconds()
	r.Values["rt_kd_insert_per_sec"] = float64(n) / kdInsert.Seconds()
	r.Values["rt_static_query_speedup_vs_kd"] = stQPS / kdQPS
	r.Values["rt_sharded_query_speedup_vs_kd"] = shQPS / kdQPS

	r.notef("n=%d records, %d queries over %d cores, %d shards; static/kd query speedup %.2fx, sharded/kd %.2fx",
		n, queries, cores, sh.NumShards(), stQPS/kdQPS, shQPS/kdQPS)
	if oracleOK != 1 {
		r.notef("DIFFERENTIAL FAILURE: a layout disagreed with the scan oracle")
	}
	return r, nil
}
