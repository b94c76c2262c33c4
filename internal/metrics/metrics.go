// Package metrics collects and summarizes the measurements the
// experiments report: latency distributions (median / mean / 90th / 99th
// percentile, Figs 7, 10, 14), hop-count and query-cost CDFs (Figs 9,
// 15), per-link and per-node load distributions (Figs 12, 13), and time
// series of per-message delays (Figs 8, 11).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Dist accumulates a sample distribution.
type Dist struct {
	vals   []float64
	sorted bool
}

// NewDist returns an empty distribution.
func NewDist() *Dist { return &Dist{} }

// Add appends one sample.
func (d *Dist) Add(v float64) {
	d.vals = append(d.vals, v)
	d.sorted = false
}

// AddDuration appends a duration sample in seconds.
func (d *Dist) AddDuration(v time.Duration) { d.Add(v.Seconds()) }

// N returns the sample count.
func (d *Dist) N() int { return len(d.vals) }

func (d *Dist) sortOnce() {
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) with linear
// interpolation; NaN for an empty distribution.
func (d *Dist) Percentile(p float64) float64 {
	if len(d.vals) == 0 {
		return math.NaN()
	}
	d.sortOnce()
	if p <= 0 {
		return d.vals[0]
	}
	if p >= 100 {
		return d.vals[len(d.vals)-1]
	}
	rank := p / 100 * float64(len(d.vals)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(d.vals) {
		return d.vals[lo]
	}
	return d.vals[lo]*(1-frac) + d.vals[lo+1]*frac
}

// Median returns the 50th percentile.
func (d *Dist) Median() float64 { return d.Percentile(50) }

// Mean returns the arithmetic mean; NaN when empty.
func (d *Dist) Mean() float64 {
	if len(d.vals) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range d.vals {
		s += v
	}
	return s / float64(len(d.vals))
}

// Min returns the smallest sample; NaN when empty.
func (d *Dist) Min() float64 {
	if len(d.vals) == 0 {
		return math.NaN()
	}
	d.sortOnce()
	return d.vals[0]
}

// Max returns the largest sample; NaN when empty.
func (d *Dist) Max() float64 {
	if len(d.vals) == 0 {
		return math.NaN()
	}
	d.sortOnce()
	return d.vals[len(d.vals)-1]
}

// Stddev returns the population standard deviation; NaN when empty.
func (d *Dist) Stddev() float64 {
	if len(d.vals) == 0 {
		return math.NaN()
	}
	m := d.Mean()
	s := 0.0
	for _, v := range d.vals {
		s += (v - m) * (v - m)
	}
	return math.Sqrt(s / float64(len(d.vals)))
}

// CDF returns (value, cumulative fraction) pairs at each distinct sample
// value, suitable for printing a figure's CDF series.
func (d *Dist) CDF() []CDFPoint {
	if len(d.vals) == 0 {
		return nil
	}
	d.sortOnce()
	var out []CDFPoint
	n := float64(len(d.vals))
	for i, v := range d.vals {
		if i+1 < len(d.vals) && d.vals[i+1] == v {
			continue
		}
		out = append(out, CDFPoint{Value: v, Frac: float64(i+1) / n})
	}
	return out
}

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	Value float64
	Frac  float64
}

// FracAtMost returns the fraction of samples <= x.
func (d *Dist) FracAtMost(x float64) float64 {
	if len(d.vals) == 0 {
		return math.NaN()
	}
	d.sortOnce()
	return float64(sort.SearchFloat64s(d.vals, math.Nextafter(x, math.Inf(1)))) / float64(len(d.vals))
}

// Summary is the five-number summary the paper's latency figures print.
type Summary struct {
	N      int
	Median float64
	Mean   float64
	P90    float64
	P99    float64
	Max    float64
}

// Summarize computes the summary.
func (d *Dist) Summarize() Summary {
	return Summary{
		N:      d.N(),
		Median: d.Median(),
		Mean:   d.Mean(),
		P90:    d.Percentile(90),
		P99:    d.Percentile(99),
		Max:    d.Max(),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d median=%.3f mean=%.3f p90=%.3f p99=%.3f max=%.3f",
		s.N, s.Median, s.Mean, s.P90, s.P99, s.Max)
}

// Series is a time-ordered sequence of (t, value) samples (Figs 8, 11).
type Series struct {
	T []time.Time
	V []float64
}

// Add appends one sample.
func (s *Series) Add(t time.Time, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.V) }

// MaxValue returns the largest value and its time.
func (s *Series) MaxValue() (time.Time, float64) {
	if len(s.V) == 0 {
		return time.Time{}, math.NaN()
	}
	bi := 0
	for i, v := range s.V {
		if v > s.V[bi] {
			bi = i
		}
	}
	return s.T[bi], s.V[bi]
}

// Reversion accumulates the live-reversioning counters: cut-tree
// installs applied and refused by epoch ordering, versions retired,
// tree pulls/pushes and sync exchanges of the skew-repair machinery,
// data messages that exposed an epoch mismatch, records re-placed after
// a mid-flip install, and split-brain reconciliation work (step-downs
// and post-rejoin re-insertions).
type Reversion struct {
	Installs        uint64 `json:"installs"`
	InstallsRefused uint64 `json:"installs_refused"`
	Retired         uint64 `json:"retired"`
	TreePulls       uint64 `json:"tree_pulls"`
	TreePushes      uint64 `json:"tree_pushes"`
	TreeSyncs       uint64 `json:"tree_syncs"`
	SkewInserts     uint64 `json:"skew_inserts"`
	SkewQueries     uint64 `json:"skew_queries"`
	Reshuffled      uint64 `json:"reshuffled"`
	StepDowns       uint64 `json:"step_downs"`
	Reinserted      uint64 `json:"reinserted"`
}

func (r Reversion) String() string {
	return fmt.Sprintf("installs=%d refused=%d retired=%d pulls=%d pushes=%d syncs=%d skew_ins=%d skew_q=%d reshuffled=%d stepdowns=%d reinserted=%d",
		r.Installs, r.InstallsRefused, r.Retired, r.TreePulls, r.TreePushes, r.TreeSyncs,
		r.SkewInserts, r.SkewQueries, r.Reshuffled, r.StepDowns, r.Reinserted)
}

// Transport condenses a managed transport's connection health: dial and
// reconnect churn, frames dropped at the transport (bounded queues,
// write deadlines, open circuits), and the peer-state census. Produced
// by tcpnet.Endpoint.Health and served by the ops endpoint.
type Transport struct {
	Dials         uint64 `json:"dials"`
	Reconnects    uint64 `json:"reconnects"`
	Evictions     uint64 `json:"evictions"`
	FramesSent    uint64 `json:"frames_sent"`
	FramesDropped uint64 `json:"frames_dropped"`
	WriteTimeouts uint64 `json:"write_timeouts"`
	PeersDialing  int    `json:"peers_dialing"`
	PeersHealthy  int    `json:"peers_healthy"`
	PeersDegraded int    `json:"peers_degraded"`
	PeersDead     int    `json:"peers_dead"`
	InboundConns  int    `json:"inbound_conns"`
}

func (t Transport) String() string {
	return fmt.Sprintf("dials=%d reconnects=%d evictions=%d sent=%d dropped=%d wtimeouts=%d peers=%d/%d/%d/%d (h/dg/dd/di) in=%d",
		t.Dials, t.Reconnects, t.Evictions, t.FramesSent, t.FramesDropped, t.WriteTimeouts,
		t.PeersHealthy, t.PeersDegraded, t.PeersDead, t.PeersDialing, t.InboundConns)
}

// Counter tracks per-key integer loads (per-link traffic, per-node
// storage).
type Counter struct {
	m map[string]int
}

// NewCounter returns an empty counter.
func NewCounter() *Counter { return &Counter{m: make(map[string]int)} }

// Inc adds n to key.
func (c *Counter) Inc(key string, n int) { c.m[key] += n }

// Get returns key's count.
func (c *Counter) Get(key string) int { return c.m[key] }

// Len returns the number of keys.
func (c *Counter) Len() int { return len(c.m) }

// Entry is one counter key with its count.
type Entry struct {
	Key   string
	Count int
}

// Sorted returns entries by descending count (ties by key).
func (c *Counter) Sorted() []Entry {
	out := make([]Entry, 0, len(c.m))
	for k, v := range c.m {
		out = append(out, Entry{k, v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Values returns the counts as a Dist for skew analysis.
func (c *Counter) Values() *Dist {
	d := NewDist()
	for _, v := range c.m {
		d.Add(float64(v))
	}
	return d
}

// ImbalanceRatio returns max/mean of the counts — the headline number of
// the storage-balance figures (Fig 2, Fig 13). NaN when empty.
func (c *Counter) ImbalanceRatio() float64 {
	d := c.Values()
	if d.N() == 0 {
		return math.NaN()
	}
	return d.Max() / d.Mean()
}

// Table renders aligned experiment output rows.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = v.Round(time.Millisecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}
