// Package detect is an off-line, centralized anomaly detector over raw
// flow streams. It plays the role of Lakhina et al.'s trace analysis in
// §5: an independently implemented detector whose findings define the
// ground truth that MIND queries are checked against for recall.
//
// The detector aggregates the entire trace centrally over 5-minute
// windows and flags (i) volume anomalies — prefix pairs moving more
// bytes than a threshold (alpha flows), and (ii) fanout anomalies —
// prefix pairs with more short connection attempts than a threshold
// (DoS floods and port scans).
package detect

import (
	"fmt"
	"sort"

	"mind/internal/flowgen"
	"mind/internal/schema"
)

// Kind classifies a detected event.
type Kind uint8

const (
	// Volume marks an alpha-flow-like event (octets above threshold).
	Volume Kind = iota
	// Fanout marks a DoS/scan-like event (short connections above
	// threshold).
	Fanout
)

func (k Kind) String() string {
	if k == Volume {
		return "volume"
	}
	return "fanout"
}

// Event is one detected anomaly instance (one prefix pair in one
// window).
type Event struct {
	Kind        Kind
	WindowStart uint64
	SrcPrefix   uint64
	DstPrefix   uint64
	Octets      uint64
	Fanout      uint64
	// Nodes are the monitors that observed the event — the same
	// correlation a MIND query response yields (§5's DoS path example).
	Nodes []int
}

func (e Event) String() string {
	return fmt.Sprintf("%s@%d %s→%s oct=%d fan=%d nodes=%v",
		e.Kind, e.WindowStart,
		schema.FormatIPv4(e.SrcPrefix), schema.FormatIPv4(e.DstPrefix),
		e.Octets, e.Fanout, e.Nodes)
}

// The detector's thresholds are the §5 query constants.
const (
	// WindowSec is the aggregation window (the paper's 5-minute windows).
	WindowSec = 300
	// VolumeThreshold is the octets a prefix pair must move in one
	// window to be a volume anomaly.
	VolumeThreshold = 4_000_000
	// FanoutThreshold is the short connections a prefix pair must make
	// at one monitor in one window to be a fanout anomaly.
	FanoutThreshold = 1500
)

type pairKey struct {
	src, dst uint64
}

type pairAgg struct {
	octets uint64
	nodes  map[int]bool
	// shorts counts short connection attempts per observing node; the
	// per-node maximum is the pair's fanout (the same flow observed at
	// several path monitors is one attempt).
	shorts map[int]uint64
}

// Detector consumes a timestamp-ordered flow stream.
type Detector struct {
	winStart uint64
	started  bool
	pairs    map[pairKey]*pairAgg
	events   []Event
}

// New creates a detector.
func New() *Detector {
	return &Detector{pairs: make(map[pairKey]*pairAgg)}
}

// Add ingests one flow.
func (d *Detector) Add(f flowgen.Flow) {
	ws := f.Start - f.Start%WindowSec
	if !d.started {
		d.winStart, d.started = ws, true
	}
	for ws > d.winStart {
		d.flush()
		d.winStart += WindowSec
	}
	k := pairKey{src: schema.Prefix24(f.SrcIP), dst: schema.Prefix24(f.DstIP)}
	a, ok := d.pairs[k]
	if !ok {
		a = &pairAgg{nodes: make(map[int]bool), shorts: make(map[int]uint64)}
		d.pairs[k] = a
	}
	// Count per-monitor observations once each toward the node set, but
	// avoid double counting octets across monitors on the same path: a
	// flow seen at k monitors is one flow. We attribute volume once per
	// (flow identity); in the synthetic setting the same flow instance
	// appears at multiple nodes with identical fields, so divide by
	// occurrence instead: simplest robust rule is to take the max
	// per-node volume. Track per-node octets and report the max later.
	a.nodes[f.Node] = true
	a.octets += f.Octets
	if f.Octets <= 400 {
		a.shorts[f.Node]++
	}
}

// Finish flushes the last window and returns all events, ordered by
// window then prefix pair.
func (d *Detector) Finish() []Event {
	if d.started {
		d.flush()
		d.started = false
	}
	sort.Slice(d.events, func(i, j int) bool {
		a, b := d.events[i], d.events[j]
		if a.WindowStart != b.WindowStart {
			return a.WindowStart < b.WindowStart
		}
		if a.DstPrefix != b.DstPrefix {
			return a.DstPrefix < b.DstPrefix
		}
		return a.SrcPrefix < b.SrcPrefix
	})
	return d.events
}

func (d *Detector) flush() {
	for k, a := range d.pairs {
		nodes := make([]int, 0, len(a.nodes))
		for n := range a.nodes {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		// Volume was summed across monitors on the path; normalize to a
		// per-monitor average so multi-hop visibility doesn't inflate it.
		oct := a.octets
		if len(nodes) > 1 {
			oct /= uint64(len(nodes))
		}
		if oct >= VolumeThreshold {
			d.events = append(d.events, Event{
				Kind: Volume, WindowStart: d.winStart,
				SrcPrefix: k.src, DstPrefix: k.dst,
				Octets: oct, Nodes: nodes,
			})
		}
		var fanout uint64
		for _, c := range a.shorts {
			if c > fanout {
				fanout = c
			}
		}
		if fanout >= FanoutThreshold {
			d.events = append(d.events, Event{
				Kind: Fanout, WindowStart: d.winStart,
				SrcPrefix: k.src, DstPrefix: k.dst,
				Octets: oct, Fanout: fanout, Nodes: nodes,
			})
		}
	}
	d.pairs = make(map[pairKey]*pairAgg)
}

// MatchesAnomaly reports whether an event corresponds to a ground-truth
// injected anomaly (same prefix pair, overlapping window).
func (e Event) MatchesAnomaly(a flowgen.Anomaly, windowSec uint64) bool {
	if e.SrcPrefix != a.SrcPrefix || e.DstPrefix != a.DstPrefix {
		return false
	}
	winEnd := e.WindowStart + windowSec
	return a.Start < winEnd && a.Start+a.Duration > e.WindowStart
}

// Recall computes the fraction of injected anomalies matched by at least
// one detected event.
func Recall(events []Event, truth []flowgen.Anomaly, windowSec uint64) float64 {
	if len(truth) == 0 {
		return 1
	}
	hit := 0
	for _, a := range truth {
		for _, e := range events {
			if e.MatchesAnomaly(a, windowSec) {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(truth))
}
