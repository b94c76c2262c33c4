// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.2 Figs 1–3, §4 Figs 7–16, §5 Fig 17) on the simulated
// substrate. Each experiment returns a Report with the same rows or
// series the paper plots, plus named scalar Values that the tests assert
// shape properties on (who wins, by roughly what factor, where
// crossovers fall). Every Value is a pure function of seed and scale, so
// the tests also pin each one to testdata/values.json.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"mind/internal/aggregate"
	"mind/internal/cluster"
	"mind/internal/flowgen"
	"mind/internal/hypercube"
	"mind/internal/metrics"
	"mind/internal/mind"
	"mind/internal/schema"
)

// Report is one experiment's regenerated output.
type Report struct {
	ID    string
	Title string
	// Tables holds the printed rows/series.
	Tables []*metrics.Table
	// Notes carries free-form observations (paper-vs-measured).
	Notes []string
	// Values exposes headline numbers for the shape checks and the
	// golden file.
	Values map[string]float64
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Values: make(map[string]float64)}
}

func (r *Report) table(t *metrics.Table) { r.Tables = append(r.Tables, t) }

func (r *Report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the full report.
func (r *Report) String() string {
	s := fmt.Sprintf("=== %s — %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		s += t.String() + "\n"
	}
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// Runner is an experiment entry point; scale in (0,1] shrinks the
// workload proportionally (1 = paper-scale shape run).
type Runner func(seed int64, scale float64) (*Report, error)

// Registry maps experiment ids to runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig1":    Fig1,
		"fig2":    Fig2,
		"fig3":    Fig3,
		"fig7":    Fig7,
		"fig8":    Fig8,
		"fig9":    Fig9,
		"fig10":   Fig10,
		"fig11":   Fig11,
		"fig12":   Fig12,
		"fig13":   Fig13,
		"fig14":   Fig14,
		"fig15":   Fig15,
		"fig16":   Fig16,
		"table17": Table17,

		"ablation-cuts":     AblationCuts,
		"ablation-cutorder": AblationCutOrder,
		"ablation-hist":     AblationHistGranularity,
		"ablation-store":    AblationStore,
		"ablation-arch":     AblationArchitectures,
		"ablation-history":  AblationHistoryPointer,
		"ablation-recovery": AblationRecovery,

		"overload":  Overload,
		"whale-agg": WhaleAgg,
	}
}

// IDs lists registered experiment ids in stable order.
func IDs() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for id := range reg {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string, seed int64, scale float64) (*Report, error) {
	r, ok := Registry()[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("experiments: scale %v out of (0,1]", scale)
	}
	return r(seed, scale)
}

// --- shared workload machinery -------------------------------------------

// timedRec is one index record tagged with its insertion time and source
// monitor.
type timedRec struct {
	at   uint64 // unix second the monitor emits the record
	node int
	tag  string
	rec  schema.Record
}

// indexSet bundles the paper's three indices for an experiment horizon.
type indexSet struct {
	horizon uint64
	i1      *schema.Schema
	i2      *schema.Schema
	i3      *schema.Schema
}

func paperIndices(horizon uint64) indexSet {
	return indexSet{
		horizon: horizon,
		i1:      schema.Index1(horizon),
		i2:      schema.Index2(horizon),
		i3:      schema.Index3(horizon),
	}
}

// buildWorkload aggregates a flow stream into timed index records per
// §4.1: 30-second windows, per-index filters, emitted at window close.
// Which indices to materialize is selected by the booleans.
func buildWorkload(g *flowgen.Generator, from, to uint64, ix indexSet, want1, want2, want3 bool) []timedRec {
	return buildWorkloadTap(g, from, to, ix, want1, want2, want3, nil)
}

// buildWorkloadTap is buildWorkload with a raw-flow tap, so an off-line
// detector can consume the identical stream (§5 cross-check).
func buildWorkloadTap(g *flowgen.Generator, from, to uint64, ix indexSet, want1, want2, want3 bool, tap func(flowgen.Flow)) []timedRec {
	var out []timedRec
	emit12 := func(ws uint64, aggs []*aggregate.Agg) {
		at := ws + 30
		for _, a := range aggs {
			if want1 {
				if rec, ok := aggregate.Index1Record(ws, a); ok {
					out = append(out, timedRec{at: at, node: a.Key.Node, tag: ix.i1.Tag, rec: rec})
				}
			}
			if want2 {
				if rec, ok := aggregate.Index2Record(ws, a); ok {
					out = append(out, timedRec{at: at, node: a.Key.Node, tag: ix.i2.Tag, rec: rec})
				}
			}
		}
	}
	emit3 := func(ws uint64, aggs []*aggregate.Agg) {
		at := ws + 30
		for _, a := range aggs {
			if rec, ok := aggregate.Index3Record(ws, a); ok {
				out = append(out, timedRec{at: at, node: a.Key.Node, tag: ix.i3.Tag, rec: rec})
			}
		}
	}
	w12 := aggregate.NewWindower(aggregate.Config{WindowSec: 30}, emit12)
	w3 := aggregate.NewWindower(aggregate.Config{WindowSec: 30, SplitPorts: true}, emit3)
	g.Generate(from, to, func(f flowgen.Flow) {
		if tap != nil {
			tap(f)
		}
		if want1 || want2 {
			w12.Add(f)
		}
		if want3 {
			w3.Add(f)
		}
	})
	w12.Flush()
	w3.Flush()
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// insertSample records one insertion's outcome.
type insertSample struct {
	at   time.Time
	lat  time.Duration
	hops int
	ok   bool
}

// driveInserts replays timed records into the cluster in virtual time:
// the clock advances to each record's emission instant (with a small
// deterministic per-node spread inside the window) and the insert is
// issued from the record's monitor node. It returns one sample per
// insert after draining the tail.
func driveInserts(c *cluster.Cluster, recs []timedRec, wallStart uint64) []insertSample {
	samples := make([]insertSample, len(recs))
	issued := 0
	done := 0
	epoch := c.Net.Now()
	for i, tr := range recs {
		// Spread same-window emissions across the window deterministically.
		offMs := uint64(tr.node*977+i*131) % 27000
		at := epoch.Add(time.Duration(tr.at-wallStart)*time.Second + time.Duration(offMs)*time.Millisecond)
		if at.After(c.Net.Now()) {
			c.Net.RunFor(at.Sub(c.Net.Now()))
		}
		i := i
		start := c.Net.Now()
		node := c.Nodes[tr.node%len(c.Nodes)]
		samples[i].at = start
		issued++
		err := node.Insert(tr.tag, tr.rec, func(res mind.InsertResult) {
			samples[i].lat = c.Net.Now().Sub(start)
			samples[i].hops = res.Hops
			samples[i].ok = res.OK
			done++
		})
		if err != nil {
			samples[i].ok = false
			done++
		}
	}
	c.Net.RunUntil(func() bool { return done >= issued }, 100_000_000)
	return samples
}

// querySample records one query's outcome.
type querySample struct {
	at         time.Time
	lat        time.Duration
	responders int
	maxHops    int
	complete   bool
	records    int
}

// querySpec describes the periodic monitoring queries of §4.1: ranges
// uniform in every attribute except the timestamp, which is always the
// last five minutes.
type querySpec struct {
	tag    string
	bounds []uint64 // attribute bounds (indexed dims)
	timeAt int      // timestamp dimension index
}

// driveQueries issues count queries from rotating nodes at the current
// virtual time, pumping the network to completion after each. rng must
// be deterministic per experiment.
func driveQueries(c *cluster.Cluster, spec querySpec, count int, now uint64, rnd func() uint64) []querySample {
	samples := make([]querySample, 0, count)
	for q := 0; q < count; q++ {
		rect := rectFor(spec, now, rnd)
		from := int(rnd() % uint64(len(c.Nodes)))
		res, lat, err := c.QueryWait(from, spec.tag, rect)
		if err != nil {
			continue
		}
		samples = append(samples, querySample{
			at:         c.Net.Now(),
			lat:        lat,
			responders: res.Responders,
			maxHops:    res.MaxHops,
			complete:   res.Complete,
			records:    len(res.Records),
		})
	}
	return samples
}

// fastOverlayConfig tightens protocol timers for virtual-time runs.
func fastOverlayConfig() hypercube.Config {
	c := hypercube.DefaultConfig()
	c.HeartbeatInterval = 2 * time.Second
	c.FailAfter = 7 * time.Second
	c.JoinTimeout = 3 * time.Second
	c.JoinRetryBackoff = 500 * time.Millisecond
	c.PrepareTimeout = 2 * time.Second
	return c
}

// nodeConfig builds the standard experiment node configuration.
func nodeConfig(seed int64) mind.Config {
	cfg := mind.DefaultConfig(seed)
	cfg.Overlay = fastOverlayConfig()
	cfg.InsertTimeout = 60 * time.Second
	cfg.QueryTimeout = 60 * time.Second
	// The figure reproductions run over bandwidth-limited WAN links where
	// a healthy insert takes 1–2 s end to end (Fig 7) and the simulation
	// drops nothing: scale the reliable layer's backoff to that latency
	// so it only retransmits genuinely stuck operations, not merely slow
	// ones — the default 1 s base would double the measured traffic.
	cfg.RetryBase = 10 * time.Second
	cfg.RetryMax = 30 * time.Second
	return cfg
}

// xorshift is a tiny deterministic generator for query parameters.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}
