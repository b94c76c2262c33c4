package chaos

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"
	"time"

	"mind/internal/baseline"
	"mind/internal/cluster"
	"mind/internal/flowgen"
	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/transport/simnet"
)

// Tag names the chaos workload's index.
const Tag = "chaos-flows"

// Schema returns the workload schema: flows indexed by destination,
// time, and source, with an unindexed unique id in the payload slot.
// The uid (record[3]) is the oracle's record identity — it survives
// content-identical flows that the dedup cache would otherwise merge.
func Schema() *schema.Schema {
	return &schema.Schema{
		Tag: Tag,
		Attrs: []schema.Attr{
			{Name: "dst", Kind: schema.KindIPv4, Max: 1<<32 - 1},
			{Name: "t", Kind: schema.KindTime, Max: 86400},
			{Name: "src", Kind: schema.KindIPv4, Max: 1<<32 - 1},
			{Name: "uid"},
		},
		IndexDims: 3,
	}
}

// nodeConfig is the per-node configuration for chaos clusters: the fast
// overlay timings the package tests use (so failure detection fits in
// seconds of virtual time) with the schedule's replication degree.
func nodeConfig(replication, retain int) mind.Config {
	cfg := mind.DefaultConfig(0) // cluster.New re-seeds per node
	cfg.Overlay.HeartbeatInterval = 500 * time.Millisecond
	cfg.Overlay.FailAfter = 1800 * time.Millisecond
	cfg.Overlay.JoinTimeout = time.Second
	cfg.Overlay.JoinRetryBackoff = 200 * time.Millisecond
	cfg.Overlay.PrepareTimeout = time.Second
	cfg.Replication = replication
	cfg.InsertTimeout = 20 * time.Second
	cfg.QueryTimeout = 20 * time.Second
	cfg.VersionSeconds = 3600
	cfg.HistCollectWait = 2 * time.Second
	cfg.RetainVersions = retain
	return cfg
}

// Options tunes a run without changing what it computes.
type Options struct {
	// CheckEvery runs the full invariant suite on every k-th check event
	// (<= 1: all of them). Oracle queries run at every check regardless.
	CheckEvery int
	// StopOnViolation aborts the schedule after the first violating
	// event, for bisection-style shrinking.
	StopOnViolation bool
	// Log, when set, receives every event-log line as it is produced.
	Log io.Writer
}

// Result is everything a chaos run produced. Two runs of the same
// schedule produce identical Logs and Digests, which is the
// bit-reproducibility contract the tests assert.
type Result struct {
	Schedule   *Schedule
	Log        []string
	Violations []Violation
	Digest     uint64 // FNV-1a over the log lines

	Checks            int
	Inserts           int
	InsertFailures    int
	Queries           int
	IncompleteQueries int
	OracleRecords     int
	Reversions        int
	AggQueries        int
	// AggExactChecks counts aggregate differentials run in exact mode:
	// no duplicate-copy risk had accrued yet, so the rollup counters were
	// required to equal the record-path answer bit-for-bit.
	AggExactChecks int
}

// runner holds the mutable state of one schedule execution.
type runner struct {
	s   *Schedule
	opt Options
	res *Result

	c   *cluster.Cluster
	sch *schema.Schema
	gen *flowgen.Generator
	rng *rand.Rand // query rectangles only

	flows []flowgen.Flow
	tsec  uint64
	uid   uint64

	oracle *baseline.Oracle
	acked  map[uint64]bool // uids the distributed insert acked (mirrored in oracle)
	maybe  map[uint64]bool // uids whose insert timed out: may or may not be stored
	atRisk map[uint64]bool // uids held as primary by some node at the moment it was killed

	// dupRisk flips (permanently — the copies persist in the stores) once
	// some event may have left a record stored as two primary copies:
	// a kill (the post-takeover RegionRecall re-inserts surviving replica
	// copies under fresh ReqIDs), a partition or link cut that
	// outlived the failure-detection window (false takeovers, dispute
	// reinsertion), or a retransmitted/timed-out insert (the retry can
	// race its first copy onto a distinct owner). Copies that meet at one
	// owner collapse there (repeat inserts), and copies kept outside
	// their owner's region never leave it (responders clip to their
	// cell); copies on two distinct owners remain, and both resolvers
	// count them alike. The record oracle keys on uid, so a record
	// returned twice is still a violation; the aggregate differential
	// downgrades from exact equality to two-sided bounds.
	dupRisk   bool
	faultAt   map[string]time.Time // open partition/cutlink windows
	failAfter time.Duration

	deadSince    map[string]time.Time
	originCursor int
	checkCount   int
}

// Run executes a schedule and returns the full result. The error return
// covers setup problems (bad schedule, cluster bring-up); invariant
// failures are reported in Result.Violations, not as errors.
func Run(s *Schedule, opt Options) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	r := &runner{
		s:   s,
		opt: opt,
		res: &Result{Schedule: s},
		sch: Schema(),
		gen: flowgen.New(flowgen.DefaultConfig(s.Seed)),
		// Offset the rect stream's seed so it is independent of the
		// generator's event draws.
		rng:       rand.New(rand.NewSource(s.Seed ^ 0x5e3779b97f4a7c15)),
		oracle:    baseline.NewOracle(Schema()),
		acked:     make(map[uint64]bool),
		maybe:     make(map[uint64]bool),
		atRisk:    make(map[uint64]bool),
		faultAt:   make(map[string]time.Time),
		failAfter: nodeConfig(s.Replication, s.RetainVersions).Overlay.FailAfter,
		deadSince: make(map[string]time.Time),
	}
	c, err := cluster.New(cluster.Options{
		N:    s.Nodes,
		Seed: s.Seed,
		Sim:  simnet.Config{Seed: s.Seed, DefaultLatency: 5 * time.Millisecond},
		Node: nodeConfig(s.Replication, s.RetainVersions),
		OnEvent: func(kind, detail string) {
			r.logf("cluster %s %s", kind, detail)
		},
	})
	if err != nil {
		return nil, err
	}
	r.c = c
	if err := c.CreateIndex(r.sch); err != nil {
		return nil, err
	}
	c.Settle(2 * time.Second)
	r.logf("run start: nodes=%d repl=%d events=%d seed=%d",
		s.Nodes, s.Replication, len(s.Events), s.Seed)
	for i, ev := range s.Events {
		r.apply(i, ev)
		if r.opt.StopOnViolation && len(r.res.Violations) > 0 {
			r.logf("stopping after event %d: first violation reached", i)
			break
		}
	}
	r.res.OracleRecords = r.oracle.Len()
	r.logf("run done: checks=%d inserts=%d/%d queries=%d aggs=%d (exact=%d) violations=%d oracle=%d",
		r.res.Checks, r.res.Inserts-r.res.InsertFailures, r.res.Inserts,
		r.res.Queries, r.res.AggQueries, r.res.AggExactChecks,
		len(r.res.Violations), r.res.OracleRecords)
	h := fnv.New64a()
	for _, line := range r.res.Log {
		io.WriteString(h, line)
		h.Write([]byte{'\n'})
	}
	r.res.Digest = h.Sum64()
	return r.res, nil
}

// logf appends a virtual-time-stamped line to the deterministic event
// log. Nothing wall-clock-derived may enter these lines.
func (r *runner) logf(format string, args ...interface{}) {
	var t float64
	if r.c != nil {
		t = r.c.Net.Now().Sub(time.Unix(0, 0).UTC()).Seconds()
	}
	line := fmt.Sprintf("[%10.3fs] %s", t, fmt.Sprintf(format, args...))
	r.res.Log = append(r.res.Log, line)
	if r.opt.Log != nil {
		fmt.Fprintln(r.opt.Log, line)
	}
}

func (r *runner) violate(evIdx int, invariant, detail string) {
	r.res.Violations = append(r.res.Violations, Violation{
		Event: evIdx, Invariant: invariant, Detail: detail,
	})
	r.logf("VIOLATION event=%d [%s] %s", evIdx, invariant, detail)
}

func (r *runner) addr(i int) string { return r.c.Nodes[i].Addr() }

func (r *runner) apply(i int, ev Event) {
	switch ev.Op {
	case "kill":
		if r.c.IsDead(ev.A) {
			r.logf("skip kill %d: already dead", ev.A)
			return
		}
		// Snapshot the victim's primaries: acked records that may be lost
		// if their replicas have not landed (or replication is off).
		n := 0
		for _, rec := range r.c.Nodes[ev.A].LocalQuery(Tag, r.sch.FullRect()) {
			r.atRisk[rec[3]] = true
			n++
		}
		r.deadSince[r.addr(ev.A)] = r.c.Net.Now()
		r.dupRisk = true
		r.c.Kill(ev.A) // logs via OnEvent
		r.logf("at-risk primaries on %s: %d", r.addr(ev.A), n)
	case "restart":
		if !r.c.IsDead(ev.A) {
			r.logf("skip restart %d: not dead", ev.A)
			return
		}
		if err := r.c.Restart(ev.A); err != nil {
			r.logf("restart %d failed: %v", ev.A, err)
			return
		}
		delete(r.deadSince, r.addr(ev.A))
	case "partition":
		live := r.c.LiveIndices()
		cut := ev.Cut
		if cut < 1 {
			cut = 1
		}
		if cut > len(live)-1 {
			cut = len(live) - 1
		}
		var ga, gb []string
		for k, idx := range live {
			if k < cut {
				ga = append(ga, r.addr(idx))
			} else {
				gb = append(gb, r.addr(idx))
			}
		}
		r.c.Net.Partition(ga, gb)
		if _, open := r.faultAt["partition"]; !open {
			r.faultAt["partition"] = r.c.Net.Now()
		}
		r.logf("partition %v | %v", ga, gb)
	case "heal":
		r.c.Net.Heal()
		r.closeFault("partition")
		r.logf("heal")
	case "loss":
		r.c.Net.SetLossProb(ev.P)
		r.logf("loss p=%.3f", ev.P)
	case "latency":
		a, b := r.addr(ev.A), r.addr(ev.B)
		if ev.Ms <= 0 {
			r.c.Net.ClearLinkLatency(a, b)
			r.logf("latency %s<->%s cleared", a, b)
		} else {
			r.c.Net.SetLinkLatency(a, b, time.Duration(ev.Ms)*time.Millisecond)
			r.logf("latency %s<->%s = %dms", a, b, ev.Ms)
		}
	case "reorder":
		r.c.Net.SetReorder(ev.P, time.Duration(ev.Ms)*time.Millisecond)
		r.logf("reorder p=%.3f window=%dms", ev.P, ev.Ms)
	case "cutlink":
		r.c.Net.CutLink(r.addr(ev.A), r.addr(ev.B))
		if _, open := r.faultAt[linkKey(ev.A, ev.B)]; !open {
			r.faultAt[linkKey(ev.A, ev.B)] = r.c.Net.Now()
		}
		r.logf("cutlink %s<->%s", r.addr(ev.A), r.addr(ev.B))
	case "restorelink":
		r.c.Net.RestoreLink(r.addr(ev.A), r.addr(ev.B))
		r.closeFault(linkKey(ev.A, ev.B))
		r.logf("restorelink %s<->%s", r.addr(ev.A), r.addr(ev.B))
	case "stall":
		if time.Duration(ev.Ms)*time.Millisecond >= r.failAfter {
			r.dupRisk = true // stall long enough to be declared dead: takeover
		}
		r.c.Net.StallNode(r.addr(ev.A), time.Duration(ev.Ms)*time.Millisecond)
		r.logf("stall %s for %dms", r.addr(ev.A), ev.Ms)
	case "insert":
		r.insertBurst(ev.N)
	case "settle":
		r.c.Settle(time.Duration(ev.Ms) * time.Millisecond)
	case "reversion":
		r.reversion()
	case "check":
		r.check(i, ev)
	}
}

// linkKey names one cutlink window, order-insensitively.
func linkKey(a, b int) string {
	if a > b {
		a, b = b, a
	}
	return fmt.Sprintf("link:%d-%d", a, b)
}

// closeFault ends one partition/cutlink window: if it outlived the
// failure-detection window, some node was falsely declared dead and
// taken over, so duplicate primary copies may now exist.
func (r *runner) closeFault(key string) {
	t, open := r.faultAt[key]
	if !open {
		return
	}
	delete(r.faultAt, key)
	if r.c.Net.Now().Sub(t) >= r.failAfter {
		r.dupRisk = true
	}
}

// sweepFaults marks duplicate risk for fault windows still open at a
// checkpoint (a hand-written schedule may check mid-partition).
func (r *runner) sweepFaults() {
	for _, t := range r.faultAt {
		if r.c.Net.Now().Sub(t) >= r.failAfter {
			r.dupRisk = true
		}
	}
}

// reversion drives one §3.7 cycle under whatever fault conditions are
// currently active: every live joined node reports its histogram for the
// workload's current version period (the reports route to the designated
// aggregator — or, mid-partition, to each side's own aggregator), the
// collection window and install flood run, and the workload clock jumps
// into the next version period so subsequent traffic crosses the
// boundary. With retention enabled, versions falling out of the window
// auto-retire on install, and the oracle is purged to match.
func (r *runner) reversion() {
	day := uint32(r.tsec / 3600)
	reports := 0
	for _, i := range r.c.LiveIndices() {
		nd := r.c.Nodes[i]
		if !nd.Joined() || !nd.HasIndex(Tag) {
			continue
		}
		if err := nd.ReportHistogram(Tag, day, 8); err == nil {
			reports++
		}
	}
	// Collection window plus slack for the install flood (and its
	// retransmissions) to spread.
	r.c.Settle(nodeConfig(r.s.Replication, r.s.RetainVersions).HistCollectWait + 4*time.Second)
	r.tsec = (uint64(day) + 1) * 3600
	r.flows = nil
	r.res.Reversions++
	r.logf("reversion: day=%d reports=%d, workload enters version %d", day, reports, day+1)
	if r.s.RetainVersions > 0 {
		r.purgeRetired(day + 1)
	}
}

// purgeRetired mirrors auto-retirement into the oracle: when version
// newV installs, every node drops versions more than RetainVersions
// behind it, so the oracle must stop expecting those records. Their uids
// move to the ambiguous set — after the sweep they must not come back,
// but a query racing the retirement flood may still surface one.
func (r *runner) purgeRetired(newV uint32) {
	if uint64(newV) <= uint64(r.s.RetainVersions) {
		return
	}
	horizon := uint64(newV) - uint64(r.s.RetainVersions)
	kept := baseline.NewOracle(r.sch)
	dropped := 0
	for _, rec := range r.oracle.Query(r.sch.FullRect()) {
		if rec[1]/3600 < horizon {
			delete(r.acked, rec[3])
			r.maybe[rec[3]] = true
			dropped++
			continue
		}
		kept.Insert(rec)
	}
	r.oracle = kept
	r.logf("oracle purge: %d records of versions below %d retired", dropped, horizon)
}

// nextOrigin rotates over nodes that can originate operations: live,
// joined, and holding the index.
func (r *runner) nextOrigin() int {
	live := r.c.LiveIndices()
	for k := 0; k < len(live); k++ {
		i := live[(r.originCursor+k)%len(live)]
		if r.c.Nodes[i].Joined() && r.c.Nodes[i].HasIndex(Tag) {
			r.originCursor = r.originCursor + k + 1
			return i
		}
	}
	return live[0]
}

// nextFlow pulls the next workload flow, generating further virtual
// seconds of traffic as the buffer drains.
func (r *runner) nextFlow() flowgen.Flow {
	for len(r.flows) == 0 {
		r.gen.GenerateSecond(r.tsec%86400, func(f flowgen.Flow) {
			r.flows = append(r.flows, f)
		})
		r.tsec++
	}
	f := r.flows[0]
	r.flows = r.flows[1:]
	return f
}

func (r *runner) insertBurst(n int) {
	acked := 0
	for j := 0; j < n; j++ {
		f := r.nextFlow()
		uid := r.uid
		r.uid++
		rec := schema.Record{f.DstIP, f.Start % 86401, f.SrcIP, uid}
		res, _, err := r.c.InsertWait(r.nextOrigin(), Tag, rec)
		r.res.Inserts++
		if err == nil && res.OK {
			r.oracle.Insert(rec)
			r.acked[uid] = true
			acked++
			if res.Attempts > 0 {
				r.dupRisk = true // a retransmission may have raced its first copy
			}
		} else {
			r.res.InsertFailures++
			r.maybe[uid] = true
			r.dupRisk = true // every attempt of a timed-out insert may have stored
		}
	}
	r.logf("insert burst n=%d acked=%d", n, acked)
}

// randRect draws a query rectangle: each dimension is either the full
// range or a span of up to 1/8 of the space, so queries mix broad scans
// with selective lookups.
func (r *runner) randRect() schema.Rect {
	bounds := r.sch.Bounds()
	lo := make([]uint64, len(bounds))
	hi := make([]uint64, len(bounds))
	for d, b := range bounds {
		if r.rng.Float64() < 0.3 {
			lo[d], hi[d] = 0, b
			continue
		}
		a := r.rng.Uint64() % (b + 1)
		w := r.rng.Uint64() % (b/8 + 1)
		lo[d] = a
		if a > b-w {
			hi[d] = b
		} else {
			hi[d] = a + w
		}
	}
	return schema.Rect{Lo: lo, Hi: hi}
}

func (r *runner) checkConfig() CheckConfig {
	targets := make(map[string][]string)
	for _, i := range r.c.LiveIndices() {
		nd := r.c.Nodes[i]
		if nd.Joined() {
			targets[nd.Addr()] = nd.ReplicaTargets()
		}
	}
	cfg := nodeConfig(r.s.Replication, r.s.RetainVersions)
	return CheckConfig{
		Replication:         r.s.Replication,
		MaxContactsPerLevel: cfg.Overlay.MaxContactsPerLevel,
		FailAfter:           cfg.Overlay.FailAfter,
		Now:                 r.c.Net.Now(),
		DeadSince:           r.deadSince,
		ReplicaTargets:      targets,
	}
}

func (r *runner) check(evIdx int, ev Event) {
	r.res.Checks++
	r.checkCount++
	r.sweepFaults()
	runInv := r.opt.CheckEvery <= 1 || (r.checkCount-1)%r.opt.CheckEvery == 0

	// Converge: takeovers, re-joins and tree anti-entropy may still be in
	// flight ("modulo in-flight takeovers"); give the overlay bounded
	// extra time to close the cover and agree on version epochs before
	// judging them.
	rounds := 0
	for ; rounds < 15; rounds++ {
		snaps := r.c.Snapshot()
		if r.c.AllJoined() && len(CheckCover(snaps)) == 0 &&
			len(CheckVersionAgreement(snaps)) == 0 {
			break
		}
		r.c.Settle(2 * time.Second)
	}
	snaps := r.c.Snapshot()
	cover := ""
	for _, s := range snaps {
		if !s.Dead && s.Joined {
			cover += fmt.Sprintf(" %s=%s", s.Addr, s.Code)
		}
	}
	r.logf("cover:%s", cover)
	if runInv {
		vs := CheckAll(snaps, r.checkConfig())
		for _, v := range vs {
			r.violate(evIdx, v.Invariant, v.Detail)
		}
		r.logf("check #%d: %d live, converged after %d extra rounds, %d invariant violations",
			r.checkCount, len(r.c.LiveIndices()), rounds, len(vs))
	} else {
		r.logf("check #%d: %d live, converged after %d extra rounds (invariants skipped)",
			r.checkCount, len(r.c.LiveIndices()), rounds)
	}

	for q := 0; q < ev.N; q++ {
		r.oracleQuery(evIdx)
	}

	// Quiescence: after the workload drains, no originator may still be
	// tracking an in-flight op.
	r.c.Settle(2 * time.Second)
	if runInv {
		for _, d := range CheckQuiescence(r.c.Snapshot()) {
			r.violate(evIdx, "quiescence", d)
		}
	}
}

// oracleQuery runs one random range query through the distributed index
// and compares the answer with the centralized oracle:
//
//   - no duplicate uids (dedup must hold),
//   - every returned record inside the rect,
//   - no phantoms (uids never acked nor possibly-stored),
//   - at a settled check the query must be Complete, and every oracle
//     record in the rect must appear unless it was at risk on a killed
//     node (bounded-loss accounting) or its insert ack was ambiguous.
func (r *runner) oracleQuery(evIdx int) {
	rect := r.randRect()
	origin := r.nextOrigin()
	qr, _, err := r.c.QueryWait(origin, Tag, rect)
	r.res.Queries++
	if err != nil {
		r.violate(evIdx, "query-error", fmt.Sprintf("origin %s: %v", r.addr(origin), err))
		return
	}
	want := make(map[uint64]bool)
	for _, rec := range r.oracle.Query(rect) {
		want[rec[3]] = true
	}
	got := make(map[uint64]bool, len(qr.Records))
	for _, rec := range qr.Records {
		uid := rec[3]
		if got[uid] {
			r.violate(evIdx, "query-dedup", fmt.Sprintf("uid %d returned twice", uid))
		}
		got[uid] = true
		if !rect.ContainsRecord(r.sch, rec) {
			r.violate(evIdx, "query-rect", fmt.Sprintf("uid %d outside the query rect", uid))
		}
		if !r.acked[uid] && !r.maybe[uid] {
			r.violate(evIdx, "query-phantom", fmt.Sprintf("uid %d was never inserted", uid))
		}
	}
	if !qr.Complete {
		r.res.IncompleteQueries++
		r.violate(evIdx, "query-coverage",
			fmt.Sprintf("incomplete at settled check (uncovered: %v)", qr.Uncovered))
	} else {
		if len(qr.Uncovered) != 0 {
			r.violate(evIdx, "query-coverage",
				fmt.Sprintf("complete result lists uncovered regions %v", qr.Uncovered))
		}
		var lost []uint64
		for uid := range want {
			if !got[uid] && !r.atRisk[uid] {
				lost = append(lost, uid)
			}
		}
		sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
		if len(lost) > 0 {
			r.violate(evIdx, "query-loss",
				fmt.Sprintf("%d acked records missing beyond loss accounting: %v", len(lost), lost))
		}
	}
	r.logf("query origin=%s got=%d want=%d complete=%v responders=%d",
		r.addr(origin), len(qr.Records), len(want), qr.Complete, qr.Responders)
	r.aggDifferential(evIdx, rect, origin, qr)
}

// aggDifferential re-asks the same rectangle through the aggregate path
// and reconciles the summary rollup's counters with the record-path
// answer. While the run is still duplicate-free (no kills, no
// takeover-width fault windows, no retransmitted inserts), every stored
// record is exactly one primary copy and the comparison is exact: COUNT
// and per-attribute SUMs must equal the record answer bit-for-bit, every
// reported heavy hitter's true count must lie in its [Count-Err, Count]
// interval, and no key above the sketch floor may be missing. Once
// duplicate copies may exist, the aggregate (which counts geometrically,
// without record identity) is held to two-sided bounds instead: it must
// never count fewer than the acked records the loss accounting requires,
// and — on an unretried run — never more than the primary copies the
// live nodes actually store in the rectangle.
func (r *runner) aggDifferential(evIdx int, rect schema.Rect, origin int, qr mind.QueryResult) {
	ar, _, err := r.c.AggWait(origin, Tag, rect, 0)
	r.res.AggQueries++
	if err != nil {
		r.violate(evIdx, "agg-error", fmt.Sprintf("origin %s: %v", r.addr(origin), err))
		return
	}
	if !ar.Complete {
		r.violate(evIdx, "agg-coverage",
			fmt.Sprintf("incomplete at settled check (uncovered: %v)", ar.Uncovered))
		return
	}
	if !r.dupRisk && qr.Complete {
		r.res.AggExactChecks++
		exact := uint64(len(qr.Records))
		sums := make([]uint64, len(r.sch.Attrs))
		keys := make(map[uint64]uint64)
		for _, rec := range qr.Records {
			for i := range sums {
				if i < len(rec) {
					sums[i] += rec[i]
				}
			}
			keys[rec[0]]++
		}
		if ar.Count != exact {
			r.violate(evIdx, "agg-count", fmt.Sprintf("agg count %d != exact %d", ar.Count, exact))
		}
		for i, s := range sums {
			if i < len(ar.Sums) && ar.Sums[i] != s {
				r.violate(evIdx, "agg-sum", fmt.Sprintf("agg sum[%d] %d != exact %d", i, ar.Sums[i], s))
			}
		}
		reported := make(map[uint64]bool, len(ar.TopK))
		for _, e := range ar.TopK { // deterministic: sorted count desc, key asc
			reported[e.Key] = true
			truth := keys[e.Key]
			if truth > e.Count || truth < e.Count-e.Err {
				r.violate(evIdx, "agg-sketch", fmt.Sprintf("key %d true count %d outside [%d,%d]",
					e.Key, truth, e.Count-e.Err, e.Count))
			}
		}
		var missing []uint64
		for k, truth := range keys {
			if !reported[k] && truth > ar.Floor {
				missing = append(missing, k)
			}
		}
		sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
		for _, k := range missing {
			r.violate(evIdx, "agg-sketch", fmt.Sprintf("key %d true count %d missing with floor %d",
				k, keys[k], ar.Floor))
		}
	} else {
		lower := uint64(0)
		for _, rec := range r.oracle.Query(rect) {
			if !r.atRisk[rec[3]] {
				lower++
			}
		}
		if ar.Count < lower {
			r.violate(evIdx, "agg-undercount",
				fmt.Sprintf("agg count %d < %d acked records beyond loss accounting", ar.Count, lower))
		}
		if !ar.Retried {
			upper := uint64(0)
			for _, i := range r.c.LiveIndices() {
				nd := r.c.Nodes[i]
				if nd.Joined() && nd.HasIndex(Tag) {
					upper += uint64(len(nd.LocalQuery(Tag, rect)))
				}
			}
			if ar.Count > upper {
				r.violate(evIdx, "agg-overcount",
					fmt.Sprintf("agg count %d > %d primary copies stored in rect", ar.Count, upper))
			}
		}
	}
	r.logf("agg origin=%s count=%d responders=%d exact=%v duprisk=%v",
		r.addr(origin), ar.Count, ar.Responders, ar.Exact, r.dupRisk)
}
