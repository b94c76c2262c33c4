package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"mind/internal/bitstr"
	"mind/internal/embed"
	"mind/internal/ingest"
	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/store"
	"mind/internal/summary"
	"mind/internal/transport"
	"mind/internal/transport/tcpnet"
	"mind/internal/wire"
)

// The isolation pass replays the workload's own records and rectangles
// through each layer's public functions alone, on one goroutine, so that
// the end-to-end figure can be set against a per-layer budget. Every
// figure is nanoseconds (or allocations) per call as stated; none of it
// runs while a timed phase does.

const (
	isoQueries   = 2000 // rectangles per query-type measurement
	isoCodecMsgs = 5000
	isoPingPongs = 2000
	isoFrames    = 200
)

var isoSink int // defeats dead-code elimination of measured calls

// perCall times n calls of f and returns nanoseconds per call.
func perCall(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// mallocs counts heap allocations made by f.
func mallocs(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// isolation returns the I-sourced per-layer metrics. live is a joined
// node of the deployment, used for hypercube.nexthop_ns only; narrowRecs
// and wideRecs are the mean result sizes the response codecs are timed at.
func isolation(in *inputs, live *mind.Node, narrowRecs, wideRecs float64) (metrics, error) {
	m := &metrics{}
	sch := schema.Index2(daySec)
	tree := embed.Uniform(sch.Bounds())
	nrec := len(in.sample) / arity
	recs := make([]schema.Record, nrec)
	for i := range recs {
		recs[i] = in.sample[i*arity : (i+1)*arity]
	}
	narrow, wide := in.narrow[:isoQueries], in.wide[:isoQueries]

	isoWire(m, in, recs, narrowRecs, wideRecs)

	// embed: point → code at the depth an 8-node overlay inserts with
	// (code length 3 + InsertDepthSlack), and rectangle decomposition at
	// the overlay's depth.
	depth := 3 + mind.DefaultConfig(0).InsertDepthSlack
	var pbuf [8]uint64
	m.add("embed.pointcode_ns", perCall(nrec, func(i int) {
		isoSink += tree.PointCode(recs[i].PointInto(sch, pbuf[:0]), depth).Len()
	}), "ns", nrec)
	m.add("embed.decompose_narrow_ns", perCall(isoQueries, func(i int) { isoSink += len(tree.Decompose(narrow[i], 3)) }), "ns", isoQueries)
	subs := 0
	m.add("embed.decompose_wide_ns", perCall(isoQueries, func(i int) { subs += len(tree.Decompose(wide[i], 3)) }), "ns", isoQueries)
	m.add("embed.subqueries_per_wide", float64(subs)/isoQueries, "count", isoQueries)

	// hypercube: greedy next hop on a live joined overlay.
	ov := live.Overlay()
	codes := make([]bitstr.Code, min(nrec, 20_000))
	for i := range codes {
		codes[i] = tree.PointCode(recs[i].PointInto(sch, pbuf[:0]), depth)
	}
	m.add("hypercube.nexthop_ns", perCall(len(codes), func(i int) {
		if _, ok := ov.NextHop(codes[i]); ok {
			isoSink++
		}
	}), "ns", len(codes))

	// store and summary: the most loaded of the eight depth-3 regions is
	// one node's share, inserted in time order.
	var byRegion [8][]schema.Record
	for _, rec := range recs {
		r := tree.PointCode(rec.PointInto(sch, pbuf[:0]), 3).Uint64()
		byRegion[r] = append(byRegion[r], rec)
	}
	share := byRegion[0]
	for _, rs := range byRegion {
		if len(rs) > len(share) {
			share = rs
		}
	}
	if len(share) == 0 {
		return nil, fmt.Errorf("isolation: no records")
	}
	isoStore(m, sch, share, narrow, wide, in)

	if err := isoTCP(m); err != nil {
		return nil, err
	}
	isoIngest(m, in)
	if err := isoMind(m, sch, share, narrow); err != nil {
		return nil, err
	}
	return *m, nil
}

func isoWire(m *metrics, in *inputs, recs []schema.Record, narrowRecs, wideRecs float64) {
	tag := schema.Index2(daySec).Tag
	// Flow frames: append and parse, per record.
	view := make([][]uint64, frameRecords)
	for i := range view {
		view[i] = recs[i%len(recs)]
	}
	var buf []byte
	m.add("wire.flowframe_append_ns_per_rec", perCall(isoFrames, func(i int) {
		buf = wire.AppendFlowFrame(buf[:0], uint64(i), tag, arity, view)
	})/frameRecords, "ns", isoFrames*frameRecords)
	dst := make([]uint64, arity)
	m.add("wire.flowframe_parse_ns_per_rec", perCall(isoFrames, func(int) {
		f, err := wire.ParseFlowFrame(buf)
		if err != nil {
			panic(err)
		}
		for j := 0; j < f.Count; j++ {
			isoSink += int(f.Record(j, dst)[0])
		}
	})/frameRecords, "ns", isoFrames*frameRecords)

	roundTrip := func(msg wire.Message) {
		data := wire.Encode(msg)
		out, err := wire.Decode(data)
		if err != nil {
			panic(err)
		}
		isoSink += int(out.Kind())
		wire.RecycleBuf(data)
	}
	respOf := func(n int) *wire.ClientQueryResp {
		resp := &wire.ClientQueryResp{ReqID: 1, Complete: true, Responders: 4}
		for i := 0; i < n; i++ {
			resp.Recs = append(resp.Recs, recs[i%len(recs)])
		}
		return resp
	}
	ins := &wire.ClientInsert{ReqID: 1, Index: tag, Rec: recs[0]}
	ack := &wire.ClientAck{ReqID: 1, OK: true, Hops: 2}
	qry := &wire.ClientQuery{ReqID: 1, Index: tag, Rect: in.narrow[0]}
	small := respOf(int(narrowRecs + 0.5))
	var insertNS, queryNS float64
	allocs := mallocs(func() {
		insertNS = perCall(isoCodecMsgs, func(int) { roundTrip(ins); roundTrip(ack) })
		queryNS = perCall(isoCodecMsgs, func(int) { roundTrip(qry); roundTrip(small) })
	})
	m.add("wire.insert_codec_ns", insertNS, "ns", isoCodecMsgs)
	m.add("wire.query_codec_ns", queryNS, "ns", isoCodecMsgs)
	m.add("wire.allocs_per_msg", allocs/(4*isoCodecMsgs), "count", 4*isoCodecMsgs)
	wideN := max(int(wideRecs+0.5), 1)
	big := respOf(wideN)
	m.add("wire.resp_codec_ns_per_rec", perCall(200, func(int) { roundTrip(big) })/float64(wideN), "ns", 200*wideN)
}

func isoStore(m *metrics, sch *schema.Schema, share []schema.Record, narrow, wide []schema.Rect, in *inputs) {
	// Insert cost and footprint: records are cloned inside the measured
	// region because a node allocates each record it stores.
	heapBefore := heapInuseAfterGC()
	st := store.NewSharded(sch, store.Options{})
	m.add("store.insert_ns_per_rec", perCall(len(share), func(i int) { st.Insert(share[i].Clone()) }), "ns", len(share))
	m.add("store.bytes_per_rec", (float64(heapInuseAfterGC())-float64(heapBefore))/float64(len(share)), "B", len(share))

	// Longest single insert call: the merge pause. Timed on a second
	// store so that per-call clock reads do not inflate the mean above.
	st2 := store.NewSharded(sch, store.Options{})
	var worst time.Duration
	for _, rec := range share {
		t := time.Now()
		st2.Insert(rec)
		if d := time.Since(t); d > worst {
			worst = d
		}
	}
	m.add("store.insert_call_max_ms", float64(worst.Nanoseconds())/1e6, "ms", len(share))

	var out []schema.Record
	m.add("store.query_narrow_ns", perCall(len(narrow), func(i int) {
		out = st.QueryAppend(narrow[i], out[:0])
		isoSink += len(out)
	}), "ns", len(narrow))
	scanned := 0
	wideNS := perCall(len(wide), func(i int) {
		out = st.QueryAppend(wide[i], out[:0])
		scanned += len(out)
	})
	m.add("store.query_wide_us", wideNS/1e3, "us", len(wide))
	m.add("store.scan_recs_per_s", ratio(float64(scanned), wideNS*float64(len(wide))/1e9), "1/s", scanned)
	m.add("store.count_wide_us", perCall(len(wide), func(i int) { isoSink += st.Count(wide[i]) })/1e3, "us", len(wide))

	// summary: inserts with folds, then resolve the way a node answers an
	// aggregate — rollup cells plus exact store scans of boundary cells.
	sum := summary.New(sch, summary.Options{})
	m.add("summary.insert_ns_per_rec", perCall(len(share), func(i int) { sum.Insert(share[i]) }), "ns", len(share))
	resolve := func(rect schema.Rect) {
		r := sum.Resolve(rect)
		a := summary.NewAgg(arity, aggTopK)
		a.Merge(r.Count, r.Sums, r.Sketch)
		for _, b := range r.Boundary {
			out = st.QueryAppend(b, out[:0])
			for _, rec := range out {
				a.Add(rec)
			}
		}
		isoSink += int(a.Count)
	}
	n := isoQueries / 4
	m.add("summary.resolve_aligned_us", perCall(n, func(i int) { resolve(in.aggAligned[i]) })/1e3, "us", n)
	m.add("summary.resolve_unaligned_us", perCall(n, func(i int) { resolve(in.aggUnaligned[i]) })/1e3, "us", n)
}

// isoTCP measures one-way delivery between two tcpnet endpoints as half
// a ping-pong round trip, for a small frame and a 64 KiB one.
func isoTCP(m *metrics) error {
	a, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer b.Close()
	pong := make(chan struct{}, 1)
	b.SetHandler(func(from string, msg []byte) { _ = b.Send(from, msg) }) // echo; a lost echo shows as the timeout below
	a.SetHandler(func(string, []byte) { pong <- struct{}{} })
	for _, c := range []struct {
		name string
		size int
		n    int
	}{{"tcpnet.oneway_us_small", 64, isoPingPongs}, {"tcpnet.oneway_us_64k", 64 << 10, isoPingPongs / 4}} {
		msg := make([]byte, c.size)
		var fail error
		rtt := perCall(c.n+1, func(int) { // the first round trip dials both directions; it is one of many
			if fail != nil {
				return
			}
			if fail = a.Send(b.Addr(), msg); fail != nil {
				return
			}
			select {
			case <-pong:
			case <-time.After(rpcTimeout):
				fail = fmt.Errorf("isolation: tcpnet echo lost")
			}
		})
		if fail != nil {
			return fail
		}
		m.add(c.name, rtt/2/1e3, "us", c.n)
	}
	return nil
}

// ackAtOnce is a BatchInserter that acknowledges every record inside the
// call, so the ingest engine is timed without a node behind it.
type ackAtOnce struct{ addr string }

func (a ackAtOnce) InsertBatch(_ string, recs []schema.Record, cb func([]mind.InsertResult)) error {
	res := make([]mind.InsertResult, len(recs))
	for i := range res {
		res[i] = mind.InsertResult{OK: true, StoredAt: a.addr}
	}
	cb(res)
	return nil
}

func isoIngest(m *metrics, in *inputs) {
	fs := in.stream
	if fs == nil {
		fs = in.preload
	}
	// Synchronous mode keeps the engine on this goroutine: frames queue
	// in the rings and Pump drains them into the inserter. Acks name
	// another address so records return to the engine's pool, as they do
	// for the 7/8 of records a node forwards.
	eng := ingest.New(ackAtOnce{addr: "elsewhere"}, ingest.Config{Synchronous: true, SelfAddr: "self"})
	defer eng.Close()
	n := fs.frames()
	if n > isoFrames {
		n = isoFrames
	}
	one := func(i int) {
		f, err := wire.ParseFlowFrame(fs.frame(i)[4:])
		if err != nil {
			panic(err)
		}
		eng.IngestFrame(&f)
		eng.Pump()
	}
	one(0) // fill the record pool once before measuring
	var ns float64
	allocs := mallocs(func() { ns = perCall(n, one) })
	recs := float64(fs.recsThrough(n))
	m.add("ingest.engine_ns_per_rec", ns*float64(n)/recs, "ns", int(recs))
	m.add("ingest.engine_allocs_per_rec", allocs/recs, "count", int(recs))
}

// isoMind times InsertBatch and Query on one bootstrapped node holding
// the same share the store figures were taken on, and subtracts the
// store, summary and embed figures: what is left is mind's own
// bookkeeping (request tracking, timers, dedup, callbacks).
func isoMind(m *metrics, sch *schema.Schema, share []schema.Record, narrow []schema.Rect) error {
	ep, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ep.Close()
	node := mind.NewNode(ep, transport.RealClock{}, mind.DefaultConfig(1))
	defer node.Close()
	node.Bootstrap()
	if err := node.CreateIndex(sch, nil); err != nil {
		return err
	}
	var wg sync.WaitGroup
	var failed error
	batches := len(share) / frameRecords
	if batches == 0 {
		return fmt.Errorf("isolation: share of %d records is below one batch", len(share))
	}
	insertNS := perCall(batches, func(i int) {
		batch := make([]schema.Record, frameRecords)
		for j := range batch {
			batch[j] = share[i*frameRecords+j].Clone()
		}
		wg.Add(1)
		if err := node.InsertBatch(sch.Tag, batch, func([]mind.InsertResult) { wg.Done() }); err != nil {
			failed = err
			wg.Done()
		}
	})
	wg.Wait()
	if failed != nil {
		return failed
	}
	m.add("mind.local_insert_ns_per_rec", insertNS/frameRecords-
		m.get("store.insert_ns_per_rec")-m.get("summary.insert_ns_per_rec")-m.get("embed.pointcode_ns"), "ns", batches*frameRecords)

	done := make(chan mind.QueryResult, 1)
	queryNS := perCall(len(narrow), func(i int) {
		if err := node.Query(sch.Tag, narrow[i], func(r mind.QueryResult) { done <- r }); err != nil {
			failed = err
			return
		}
		isoSink += len((<-done).Records)
	})
	if failed != nil {
		return failed
	}
	m.add("mind.local_query_ns", queryNS-m.get("store.query_narrow_ns")-m.get("embed.decompose_narrow_ns"), "ns", len(narrow))
	return nil
}
