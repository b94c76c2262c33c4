package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mind/internal/schema"
	"mind/internal/wire"
)

// Sizes in the issue's terms are 30 s phases over a 600k-record preload.
// The harness that runs this benchmark caps a run well below that, so
// preload and phase length scale together: the preload is
// preloadPerSecond times -seconds, and the -seconds of measuring are
// spent on phasesPerRun deployments (see untracedRun).
const (
	preloadPerSecond = 20_000  // 600k records per 30 s of phase
	bulkPerSecond    = 80_000  // ingest_bulk backfills this many records per second of -seconds (2.4M per 30 s)
	mixedRate        = 30_000  // mixed_rw stream, records per second
	poolSize         = 8192    // distinct rectangles per query pool
	numClients       = 2       // closed-loop RPC clients (entry nodes 0 and 4)
	clientInserts    = 1 << 16 // pre-generated insert records per client
	sampleRecords    = 200_000 // records the isolation pass replays at most
	frameAckLimit    = time.Second
	steadyBuckets    = 5  // steady-state figures are medians over this many slices of a phase
	samplesPerBucket = 10 // progress samples per slice
)

// spec describes one workload.
type spec struct {
	name string
	// reps is how many deployments an untraced run sets up and measures.
	reps int
	// perRecord says what one unit of work is, for cpu_us_per_unit and the
	// per-op figures: an acknowledged stream record, or else a completed
	// client operation.
	perRecord bool
	// inserts says the workload issues ClientInserts, so client records
	// are generated for it.
	inserts bool
	// dropMode reopens the ingest socket with the default Drop admission
	// after the preload; otherwise it stays in Block mode.
	dropMode bool
	// sizes gives the records to preload (scaled by the run's -seconds)
	// and to stream in the phase (scaled by the phase's length), and the
	// trace time the preload covers; the stream covers the rest of the day.
	sizes func(seconds, phase float64) (preload, stream int, t0, t1 uint64)
	run   func(e *env, r *result)
	// headline picks the latency sample reported as latency_p50_us, rate
	// the figure reported as throughput_per_s, cost the one reported as
	// cpu_us_per_unit.
	headline func(r *result) []float64
	rate     func(r *result) float64
	cost     func(r *result) float64
}

// A workload in a steady state reports the median rate and CPU cost over
// steadyBuckets slices of its phase: a stall of the host inside one slice
// does not move a median, a slowdown that lasts does.
func opRate(r *result) float64  { return steadyRate(r.opTicks, r.wall) }
func opCost(r *result) float64  { return steadyCost(r.opTicks, r.wall) }
func recCost(r *result) float64 { return steadyCost(r.recTicks, r.wall) }

func ackRate(r *result) float64 { return r.ingestRate }

var specs = []*spec{
	{
		name: "ingest_bulk",
		// The backfill is a fixed amount of work that takes about 3 s, not
		// a phase of -seconds/phasesPerRun, and its set-up is a fraction of
		// a second: five of them fill the run's 15 s and steady the median.
		reps:      5,
		perRecord: true,
		sizes: func(_, phase float64) (int, int, uint64, uint64) {
			return 0, int(phase * bulkPerSecond), 0, daySec
		},
		run: runIngestBulk,
		// What the user of a backfill waits for is the whole of it: first
		// frame sent → every record reported settled. (A single frame's
		// acknowledgement time is printed as frame_ack_p50_ms; the sender's
		// 32-frame window and the listener's status cadence set it, and its
		// median sits between two modes.)
		headline: func(r *result) []float64 { return []float64{float64(r.wall)} },
		// A backfill is a fixed set of records whose cost grows as it goes,
		// not a steady state: its figures are over the whole of it.
		rate: ackRate,
		cost: func(r *result) float64 {
			return ratio(float64((r.after.cpu - r.before.cpu).Microseconds()), r.units)
		},
	},
	{
		name:    "point_ops",
		reps:    phasesPerRun,
		inserts: true,
		sizes: func(s, _ float64) (int, int, uint64, uint64) {
			return int(s * preloadPerSecond), 0, 0, daySec
		},
		run:      runPointOps,
		headline: func(r *result) []float64 { return r.lat[opNarrow] },
		rate:     opRate,
		cost:     opCost,
	},
	{
		name: "scan_agg",
		reps: phasesPerRun,
		sizes: func(s, _ float64) (int, int, uint64, uint64) {
			return int(s * preloadPerSecond), 0, 0, daySec
		},
		run:      runScanAgg,
		headline: func(r *result) []float64 { return r.lat[opWide] },
		rate:     opRate,
		cost:     opCost,
	},
	{
		name:      "mixed_rw",
		reps:      phasesPerRun,
		perRecord: true,
		dropMode:  true,
		sizes: func(s, phase float64) (int, int, uint64, uint64) {
			return int(s * preloadPerSecond), int(phase*mixedRate) / frameRecords * frameRecords, 0, daySec / 2
		},
		run: runMixedRW,
		// The stream is offered at a fixed rate, so throughput_per_s (the
		// rate acknowledged) stays at the offered 30,000 until the write
		// path falls behind: it shows a collapse, not a slowdown. What a
		// slowdown moves is the latency of the narrow queries the client
		// beside the stream asks of the newest data (merge pauses, lock
		// waits and ingest bursts all land on it), and the CPU a record
		// costs with that client's work riding along.
		headline: func(r *result) []float64 { return r.lat[opNarrow] },
		rate:     ackRate,
		cost:     recCost,
	},
}

func findSpec(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// inputs is everything generated from the seed for one workload run.
type inputs struct {
	tb           *tables
	preload      *frameSet
	stream       *frameSet
	sample       []uint64 // flat records the isolation pass replays
	or           *oracle  // over preload then stream, in time order
	preloadRecs  int
	narrow, wide []schema.Rect
	aggAligned   []schema.Rect
	aggUnaligned []schema.Rect
	clientRecs   [numClients][][]uint64
	digest       digest
	narrowSpan   uint64 // seconds a narrow query covers
}

func generate(sp *spec, seed int64, seconds, phase float64) *inputs {
	tb := newTables(seed)
	in := &inputs{tb: tb}
	tag := schema.Index2(daySec).Tag
	nPre, nStream, t0, tSplit := sp.sizes(seconds, phase)
	var all []uint64
	if nPre > 0 {
		all = tb.records(saltLoad, nPre, t0, tSplit)
		in.preload = encodeFrames(tag, all)
		in.preloadRecs = nPre
	}
	if nStream > 0 {
		from := tSplit
		if nPre == 0 {
			from = t0
		}
		stream := tb.records(saltStream, nStream, from, daySec)
		in.stream = encodeFrames(tag, stream)
		all = append(all, stream...)
	}
	in.digest.words(all)
	if nPre > 0 {
		in.or = newOracle(all)
	}
	in.sample = strided(all, sampleRecords)
	// Query pools range over the preloaded part of the day (the whole
	// day when there is no preload: only the isolation pass uses them).
	qEnd := tSplit
	if nPre == 0 {
		qEnd = daySec
	}
	// Narrow queries span the windows that hold about narrowSpanRecords
	// records where they are asked: the preload, or on mixed_rw (whose
	// queries follow the stream) the stream.
	in.narrowSpan = narrowSpan(len(all)/arity, t0, daySec)
	if nPre > 0 {
		in.narrowSpan = narrowSpan(nPre, t0, tSplit)
	}
	if nPre > 0 && nStream > 0 {
		in.narrowSpan = narrowSpan(nStream, tSplit, daySec)
	}
	in.narrow = tb.narrowPool(poolSize, t0, qEnd, in.narrowSpan)
	in.wide = tb.widePool(poolSize, t0, qEnd)
	in.aggAligned, in.aggUnaligned = tb.aggPools(poolSize)
	for _, pool := range [][]schema.Rect{in.narrow, in.wide, in.aggAligned, in.aggUnaligned} {
		in.digest.rects(pool)
	}
	for c := 0; sp.inserts && c < numClients; c++ {
		rng := tb.rng(saltClient + int64(c))
		destZ := rand.NewZipf(rng, zipfS, 1, numDestPrefixes-1)
		in.clientRecs[c] = make([][]uint64, clientInserts)
		for i := range in.clientRecs[c] {
			in.clientRecs[c][i] = tb.clientRecord(rng, destZ, c, uint64(i))
			in.digest.words(in.clientRecs[c][i])
		}
	}
	return in
}

// resultSizes returns the mean number of records a narrow and a wide
// query of the pools return — over the preload, or without one over the
// isolation sample. The isolation pass sizes its response codecs by them.
func (in *inputs) resultSizes() (narrow, wide float64) {
	or := in.or
	if or == nil {
		or = newOracle(in.sample)
	}
	for i := range in.narrow {
		n, _ := or.narrow(in.narrow[i])
		w, _ := or.wide(in.wide[i])
		narrow += float64(n)
		wide += float64(w)
	}
	return narrow / poolSize, wide / poolSize
}

// strided returns at most n records of flat, evenly spaced, so that the
// isolation pass sees the whole time range of a long stream.
func strided(flat []uint64, n int) []uint64 {
	total := len(flat) / arity
	if total <= n {
		return flat
	}
	stride := (total + n - 1) / n
	out := make([]uint64, 0, (total/stride+1)*arity)
	for i := 0; i < total; i += stride {
		out = append(out, flat[i*arity:(i+1)*arity]...)
	}
	return out
}

// result is what one timed phase produced.
type result struct {
	wall       time.Duration
	units      float64 // records acked or client ops completed, per spec.perRecord
	ops        int     // client RPCs completed
	recsAcked  uint64  // stream records acked in the phase
	ingestRate float64 // acked rec/s between the first and the last status that arrived while frames were being sent
	recTicks   []tick  // acked records and CPU at each status up to the one that reported everything settled
	opTicks    []tick  // completed client ops and CPU, sampled on a clock
	lat        [numOpKinds][]float64
	frameAck   []float64 // ns, frame timed-from instant → covering status
	lag        []float64 // ns, open-loop generator lateness
	resultRecs int       // records returned by wide queries
	responders int
	queries    int
	hops       int
	attempted  int
	failed     int
	notes      []string
	before     procSnap
	after      procSnap
	ctrBefore  counters
	ctrAfter   counters
}

func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *result) merge(o *result) {
	r.ops += o.ops
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
	}
	r.resultRecs += o.resultRecs
	r.responders += o.responders
	r.queries += o.queries
	r.hops += o.hops
	r.attempted += o.attempted
	r.failed += o.failed
	r.notes = append(r.notes, o.notes...)
}

// env is a prepared deployment plus its load generator connections.
type env struct {
	sp     *spec
	in     *inputs
	c      *cluster
	tr     *tracer
	rpc    [numClients]*rpcClient
	stream *streamClient // nil when the workload streams nothing in its phase
	// preload is the final status of the backfill connection.
	preload wire.StreamStatus
	seconds float64      // length of the timed phase
	opsDone atomic.Int64 // client RPCs completed, for the progress sampler
}

func (e *env) span(name uint16, start time.Time, dur time.Duration, val int) {
	if e.tr != nil {
		e.tr.add(e.tr.clientShard(), name, start, dur, val)
	}
}

func (e *env) close() {
	for _, c := range e.rpc {
		if c != nil {
			c.close()
		}
	}
	if e.stream != nil {
		e.stream.close()
	}
	if e.c != nil {
		e.c.close()
	}
}

// prepare is the set-up a run pays before its timed phase: generate the
// inputs, boot the cluster, backfill the preload, and prove it queryable
// through every client. sizeSeconds is the run's -seconds, which sizes
// the preload; phaseSeconds is the length of this deployment's phase.
func prepare(sp *spec, seed int64, sizeSeconds, phaseSeconds float64, tr *tracer) (_ *env, err error) {
	e := &env{sp: sp, tr: tr, seconds: phaseSeconds, in: generate(sp, seed, sizeSeconds, phaseSeconds)}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.c, err = startCluster(tr); err != nil {
		return nil, err
	}
	if e.in.preload != nil {
		if err := e.backfill(); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	for i := range e.rpc {
		if e.rpc[i], err = newRPCClient(e.c.eps[i*numNodes/numClients].Addr()); err != nil {
			return nil, err
		}
		// One query per client opens its connections and proves the
		// preload queryable before set-up is declared over.
		var warm result
		e.query(e.rpc[i], &warm, opWide, e.in.wide[i])
		if warm.failed > 0 {
			return nil, fmt.Errorf("warm-up query: %v", warm.notes)
		}
	}
	if sp.dropMode {
		if err := e.c.openIngest(false); err != nil {
			return nil, err
		}
	}
	if e.in.stream != nil {
		if e.stream, err = dialStream(e.c.ln.Addr(), e.in.stream.frames()); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// backfill streams the preload through the ingest socket and waits until
// every record of it is acknowledged.
func (e *env) backfill() error {
	sc, err := dialStream(e.c.ln.Addr(), e.in.preload.frames())
	if err != nil {
		return err
	}
	defer sc.close()
	if err := sc.sendAll(e.in.preload); err != nil {
		return err
	}
	if e.preload, err = sc.waitSettled(settleWait); err != nil {
		return err
	}
	if e.preload.Acked != uint64(e.in.preloadRecs) {
		return fmt.Errorf("%d of %d records acknowledged", e.preload.Acked, e.in.preloadRecs)
	}
	return nil
}

// timed runs the workload's phase between two snapshots of the process
// and of the public counters.
func (e *env) timed() *result {
	r := &result{}
	if e.tr != nil {
		e.tr.enabled.Store(true)
		defer e.tr.enabled.Store(false)
	}
	r.ctrBefore = e.c.counters()
	r.before = snapProc()
	start := time.Now()
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() { // samples the ops counter and the CPU clock while the phase runs
		defer close(sampled)
		t := time.NewTicker(time.Duration(e.seconds * float64(time.Second) / (steadyBuckets * samplesPerBucket)))
		defer t.Stop()
		for {
			r.opTicks = append(r.opTicks, tick{at: time.Now(), units: float64(e.opsDone.Load()), cpu: cpuTime()})
			select {
			case <-t.C:
			case <-stop:
				return
			}
		}
	}()
	e.sp.run(e, r)
	r.wall = time.Since(start)
	close(stop)
	<-sampled
	r.after = snapProc()
	r.ctrAfter = e.c.counters()
	return r
}

// --- client operations -------------------------------------------------

func (e *env) insert(rc *rpcClient, r *result, rec []uint64) {
	req := &wire.ClientInsert{ReqID: rc.nextID(), Index: e.c.sch.Tag, Rec: rec}
	start := time.Now()
	m, err := rc.call(req)
	dur := time.Since(start)
	e.span(spanClientInsert, start, dur, 1)
	r.attempted++
	ack, ok := m.(*wire.ClientAck)
	if err != nil || !ok || !ack.OK {
		r.fail(1, "insert: %v %+v", err, m)
		return
	}
	r.ops++
	e.opsDone.Add(1)
	r.hops += int(ack.Hops)
	r.lat[opInsert] = append(r.lat[opInsert], float64(dur))
}

// query issues one ClientQuery and compares the answer with the
// oracle's count and checksum. The comparison runs after the latency is
// taken.
func (e *env) query(rc *rpcClient, r *result, kind queryKind, rect schema.Rect) []schema.Record {
	req := &wire.ClientQuery{ReqID: rc.nextID(), Index: e.c.sch.Tag, Rect: rect}
	start := time.Now()
	m, err := rc.call(req)
	dur := time.Since(start)
	e.span(spanClientQuery, start, dur, 0)
	r.attempted++
	resp, ok := m.(*wire.ClientQueryResp)
	if err != nil || !ok || resp.Shed || !resp.Complete {
		r.fail(1, "%s query %v: %v %T", opNames[kind], rect, err, m)
		return nil
	}
	r.ops++
	e.opsDone.Add(1)
	r.responders += int(resp.Responders)
	r.queries++
	r.lat[kind] = append(r.lat[kind], float64(dur))
	if kind == opReadYourWrite || e.in.or == nil {
		out := make([]schema.Record, len(resp.Recs))
		for i, rec := range resp.Recs {
			out[i] = rec
		}
		return out
	}
	var sum uint64
	for _, rec := range resp.Recs {
		sum += recHash(rec)
	}
	var wantN int
	var wantSum uint64
	if kind == opNarrow {
		wantN, wantSum = e.in.or.narrow(rect)
	} else {
		wantN, wantSum = e.in.or.wide(rect)
		r.resultRecs += len(resp.Recs)
	}
	if len(resp.Recs) != wantN || sum != wantSum {
		r.fail(1, "%s query %v: %d records (checksum %x), want %d (%x)", opNames[kind], rect, len(resp.Recs), sum, wantN, wantSum)
	}
	return nil
}

// readYourWrite asks for exactly the point just inserted; the answer
// must contain the record.
func (e *env) readYourWrite(rc *rpcClient, r *result, rec []uint64) {
	rect := rect3(rec[attrDest], rec[attrDest], rec[attrTime], rec[attrTime], rec[attrOctets], rec[attrOctets])
	before := r.failed
	got := e.query(rc, r, opReadYourWrite, rect)
	if r.failed != before {
		return
	}
	for _, g := range got {
		if len(g) == arity && g[attrSrc] == rec[attrSrc] && g[attrNode] == rec[attrNode] {
			return
		}
	}
	r.fail(1, "read-your-write: %v not among %d records", rec, len(got))
}

// agg issues one ClientAgg and checks COUNT and SUM exactly and every
// top-k entry's bracket against the oracle.
func (e *env) agg(rc *rpcClient, r *result, kind queryKind, rect schema.Rect) {
	req := &wire.ClientAgg{ReqID: rc.nextID(), Index: e.c.sch.Tag, Rect: rect, TopK: aggTopK}
	start := time.Now()
	m, err := rc.call(req)
	dur := time.Since(start)
	e.span(spanClientAgg, start, dur, 0)
	r.attempted++
	resp, ok := m.(*wire.ClientAggResp)
	if err != nil || !ok || resp.Shed || !resp.Complete {
		r.fail(1, "%s %v: %v %T", opNames[kind], rect, err, m)
		return
	}
	r.ops++
	e.opsDone.Add(1)
	r.responders += int(resp.Responders)
	r.queries++
	r.lat[kind] = append(r.lat[kind], float64(dur))
	wantN, wantSums := e.in.or.agg(rect)
	if resp.Count != wantN {
		r.fail(1, "%s %v: count %d, want %d", opNames[kind], rect, resp.Count, wantN)
		return
	}
	for a, want := range wantSums {
		if a >= len(resp.Sums) || resp.Sums[a] != want {
			r.fail(1, "%s %v: sums %v, want %v", opNames[kind], rect, resp.Sums, wantSums)
			return
		}
	}
	top := e.in.tb.dest[0] // the heaviest prefix: present, or below the floor
	present := false
	for i, key := range resp.Keys {
		truth := e.in.or.keyCount(key, rect)
		if truth > resp.Counts[i] || truth+resp.Errs[i] < resp.Counts[i] {
			r.fail(1, "%s %v: key %x count %d err %d, true %d", opNames[kind], rect, key, resp.Counts[i], resp.Errs[i], truth)
			return
		}
		present = present || key == top
	}
	if truth := e.in.or.keyCount(top, rect); !present && truth > resp.Floor {
		r.fail(1, "%s %v: heaviest key absent with true count %d above floor %d", opNames[kind], rect, truth, resp.Floor)
	}
}

// clients runs one closed loop per RPC client until the deadline and
// merges what they saw into r.
func (e *env) clients(r *result, n int, loop func(c int, rc *rpcClient, cr *result)) {
	parts := make([]result, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			loop(c, e.rpc[c], &parts[c])
		}(c)
	}
	wg.Wait()
	for c := range parts {
		r.merge(&parts[c])
	}
}

func (e *env) deadline() time.Time {
	return time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
}

// --- workloads ---------------------------------------------------------

// runIngestBulk backfills a fixed number of records (bulkPerSecond per
// second of -seconds) rather than running for a fixed time: the cost of
// a record grows with the store, so only the time to ingest the same
// records compares between two runs.
func runIngestBulk(e *env, r *result) {
	fs := e.in.stream
	sent := 0
	for ; sent < fs.frames(); sent++ {
		if err := e.stream.send(fs.frame(sent), time.Now(), true); err != nil {
			r.fail(1, "send frame %d: %v", sent+1, err)
			break
		}
	}
	e.settleStream(r, sent, time.Now())
	r.units = float64(r.recsAcked)
}

// settleStream waits for the phase's stream to settle and books its
// records: attempted, failed, acked, the frame latencies and the
// steady-state ack rate.
func (e *env) settleStream(r *result, sent int, sendEnd time.Time) {
	sc, fs := e.stream, e.in.stream
	st, err := sc.waitSettled(settleWait)
	if err != nil {
		r.fail(1, "stream: %v", err)
	}
	offered := fs.recsThrough(sent)
	r.attempted += offered
	r.recsAcked = st.Acked
	if st.Received != uint64(offered) || st.Received != st.Acked+st.Failed+st.Dropped {
		r.fail(1, "stream accounting: offered %d received %d acked %d failed %d dropped %d", offered, st.Received, st.Acked, st.Failed, st.Dropped)
	}
	if lost := st.Failed + st.Dropped; lost > 0 {
		r.fail(int(lost), "stream: %d records failed, %d dropped", st.Failed, st.Dropped)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	late := 0
	for i := 0; i < sent; i++ {
		ack := sc.ack[i]
		if ack <= 0 || ack > frameAckLimit {
			late++
			continue
		}
		r.frameAck = append(r.frameAck, float64(ack))
		e.span(spanClientFrame, sc.from[i], ack, frameRecords)
	}
	if late > 0 && e.sp.dropMode {
		r.fail(late*frameRecords, "%d frames not acknowledged within %v of their due time", late, frameAckLimit)
	}
	// The ack rate is taken between statuses that arrived while frames
	// were still being sent: those are triggered by frames and timed to
	// the microsecond, whereas after the last frame only the listener's
	// 100 ms ticker reports, which would quantise the end of a backfill.
	// (A backfill too short to see acknowledgements advance while it is
	// being sent falls back to the status that reported it settled.)
	inBand := 0
	for _, s := range sc.statuses {
		r.recTicks = append(r.recTicks, tick{at: s.at, units: float64(s.st.Acked), cpu: s.cpu})
		if !s.at.After(sendEnd) && s.st.Acked > sc.statuses[0].st.Acked {
			inBand = len(r.recTicks) - 1
		}
		if s.st.Seq >= uint64(sent) && s.st.Acked+s.st.Failed+s.st.Dropped >= s.st.Received {
			break
		}
	}
	if n := len(r.recTicks); n > 1 {
		if inBand == 0 {
			inBand = n - 1
		}
		first, last := r.recTicks[0], r.recTicks[inBand]
		r.ingestRate = ratio(last.units-first.units, last.at.Sub(first.at).Seconds())
	}
}

func runPointOps(e *env, r *result) {
	deadline := e.deadline()
	e.clients(r, numClients, func(c int, rc *rpcClient, cr *result) {
		pool := e.in.narrow
		qi := c * len(pool) / numClients
		for seq, rec := range e.in.clientRecs[c] {
			if !time.Now().Before(deadline) {
				break
			}
			e.insert(rc, cr, rec)
			if seq%50 == 0 {
				e.readYourWrite(rc, cr, rec)
			}
			for k := 0; k < 4; k++ {
				e.query(rc, cr, opNarrow, pool[qi%len(pool)])
				qi++
			}
		}
	})
	r.units = float64(r.ops)
}

func runScanAgg(e *env, r *result) {
	deadline := e.deadline()
	e.clients(r, numClients, func(c int, rc *rpcClient, cr *result) {
		in := e.in
		for i := c * poolSize / numClients; time.Now().Before(deadline); i++ {
			k := i % poolSize
			switch i % 4 {
			case 0, 2:
				e.query(rc, cr, opWide, in.wide[k])
			case 1:
				e.agg(rc, cr, opAggAligned, in.aggAligned[k])
			case 3:
				e.agg(rc, cr, opAggUnaligned, in.aggUnaligned[k])
			}
		}
	})
	r.units = float64(r.ops)
}

func runMixedRW(e *env, r *result) {
	fs := e.in.stream
	interval := time.Second * frameRecords / mixedRate
	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	wg.Add(1)
	sent := 0
	var sendErr error
	go func() { // open loop: frames leave on schedule whatever the system does
		defer wg.Done()
		for ; sent < fs.frames(); sent++ {
			due := start.Add(time.Duration(sent) * interval)
			if !due.Before(deadline) {
				return
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			r.lag = append(r.lag, float64(time.Since(due)))
			if sendErr = e.stream.send(fs.frame(sent), due, false); sendErr != nil {
				return
			}
		}
	}()
	// One closed-loop client asks about the newest trace-minutes known to
	// be settled: 8 narrow (the newest narrowSpan), 1 wide and 1 aggregate
	// (the newest ten minutes).
	var cr result
	rc := e.rpc[0]
	for i := 0; time.Now().Before(deadline); i++ {
		settled := e.in.preloadRecs + fs.recsThrough(e.stream.settledFrames())
		tEnd := e.in.or.ts[settled-1] // its window may still be filling: stop before it
		t0, t1 := tEnd-600, tEnd-1
		switch i % 10 {
		case 8:
			e.query(rc, &cr, opWide, timeRect(t0, t1))
		case 9:
			e.agg(rc, &cr, opAggUnaligned, timeRect(t0, t1))
		default:
			e.query(rc, &cr, opNarrow, narrowRect(e.in.narrow[i%poolSize].Lo[attrDest], tEnd-e.in.narrowSpan, t1))
		}
	}
	wg.Wait()
	sendEnd := time.Now()
	r.merge(&cr)
	if sendErr != nil {
		r.fail(1, "send frame %d: %v", sent+1, sendErr)
	}
	e.settleStream(r, sent, sendEnd)
	r.units = float64(r.recsAcked)
}
