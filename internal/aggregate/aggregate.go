// Package aggregate implements the monitor-side pre-filtering pipeline
// of §2.2 and §4.1: raw flow records are aggregated over fixed time
// windows on prefix-pair keys, summary attributes (fanout, octets,
// average flow size) are computed per aggregate, and small
// "uninteresting" aggregates are filtered out before insertion into
// MIND. The paper reports that a 30-second window with a 50 KB threshold
// reduces record counts by almost two orders of magnitude (Fig 1); the
// Fig 1 bench reproduces that sweep with this package.
package aggregate

import (
	"cmp"
	"slices"

	"mind/internal/flowgen"
	"mind/internal/schema"
)

// Key identifies one traffic aggregate within a window: the /24 prefix
// pair observed at one monitor, plus the destination port for the
// port-sensitive Index-3.
type Key struct {
	Node      int
	SrcPrefix uint64
	DstPrefix uint64
	DstPort   uint16 // used only when SplitPorts is set
}

// Agg accumulates one aggregate's statistics within a window.
type Agg struct {
	Key     Key
	Octets  uint64
	Packets uint64
	Flows   int
	// conns tracks distinct connections: within one aggregate the /24
	// prefixes are the key's, so a connection is its two host bytes and
	// its destination port (connOf).
	conns map[uint32]struct{}
	// shortAttempts counts short connection attempts — every small flow,
	// including repeats. Index-1's fanout counts attempts, so a flood or
	// scan is not capped by the 254 hosts of a /24 (the paper's §5
	// queries use fanout > 1500 on /24-pair aggregates).
	shortAttempts uint64
}

// connOf packs a flow's connection within its aggregate: the host
// bytes of its source and destination and its destination port.
func connOf(f flowgen.Flow) uint32 {
	return uint32(f.SrcIP&0xff)<<24 | uint32(f.DstIP&0xff)<<16 | uint32(f.DstPort)
}

// ShortFlowOctets is the per-flow size at or below which a connection
// counts as a "short connection attempt" for fanout purposes.
const ShortFlowOctets = 400

// Fanout returns the number of short connection attempts in the
// aggregate.
func (a *Agg) Fanout() uint64 { return a.shortAttempts }

// Connections returns the number of distinct connections.
func (a *Agg) Connections() uint64 { return uint64(len(a.conns)) }

// FlowSize returns the average traffic per distinct connection.
func (a *Agg) FlowSize() uint64 {
	if len(a.conns) == 0 {
		return 0
	}
	return a.Octets / uint64(len(a.conns))
}

// Config tunes a Windower.
type Config struct {
	// WindowSec is the aggregation window length (the paper uses 30 s).
	WindowSec uint64
	// SplitPorts keys aggregates by destination port as well (Index-3).
	SplitPorts bool
}

// Windower consumes timestamp-ordered flows and emits one batch of
// aggregates per completed window.
type Windower struct {
	cfg      Config
	winStart uint64
	started  bool
	aggs     map[packedKey]*Agg // reused from window to window
	emit     func(winStart uint64, aggs []*Agg)
}

// packedKey is a Key in two words, in its sort order: the node and the
// destination prefix, then the source prefix and the destination port.
// Flows are IPv4, so a prefix fits 32 bits; a map keyed by it hashes 16
// bytes instead of the Key's 32.
type packedKey struct{ hi, lo uint64 }

func packKey(k Key) packedKey {
	return packedKey{hi: uint64(k.Node)<<32 | k.DstPrefix, lo: k.SrcPrefix<<16 | uint64(k.DstPort)}
}

func (k packedKey) cmp(o packedKey) int {
	if c := cmp.Compare(k.hi, o.hi); c != 0 {
		return c
	}
	return cmp.Compare(k.lo, o.lo)
}

// NewWindower creates a windower delivering completed windows to emit.
// Aggregates within a window are emitted in deterministic (sorted key)
// order.
func NewWindower(cfg Config, emit func(winStart uint64, aggs []*Agg)) *Windower {
	if cfg.WindowSec == 0 {
		cfg.WindowSec = 30
	}
	return &Windower{cfg: cfg, aggs: make(map[packedKey]*Agg), emit: emit}
}

// Add ingests one flow. Flows must arrive in nondecreasing timestamp
// order (the generator guarantees this); a flow in a later window
// flushes the current one.
func (w *Windower) Add(f flowgen.Flow) {
	ws := f.Start - f.Start%w.cfg.WindowSec
	if !w.started {
		w.winStart, w.started = ws, true
	}
	for ws > w.winStart {
		w.flush()
		w.winStart += w.cfg.WindowSec
	}
	k := Key{
		Node:      f.Node,
		SrcPrefix: schema.Prefix24(f.SrcIP),
		DstPrefix: schema.Prefix24(f.DstIP),
	}
	if w.cfg.SplitPorts {
		k.DstPort = f.DstPort
	}
	pk := packKey(k)
	a, ok := w.aggs[pk]
	if !ok {
		a = &Agg{Key: k, conns: make(map[uint32]struct{})}
		w.aggs[pk] = a
	}
	a.Octets += f.Octets
	a.Packets += f.Packets
	a.Flows++
	a.conns[connOf(f)] = struct{}{}
	if f.Octets <= ShortFlowOctets {
		a.shortAttempts++
	}
}

// Flush emits any pending window; call once after the last flow.
func (w *Windower) Flush() {
	if w.started && len(w.aggs) > 0 {
		w.flush()
	}
	w.started = false
}

func (w *Windower) flush() {
	if len(w.aggs) == 0 {
		return
	}
	batch := make([]*Agg, 0, len(w.aggs))
	for _, a := range w.aggs {
		batch = append(batch, a)
	}
	slices.SortFunc(batch, func(a, b *Agg) int { return packKey(a.Key).cmp(packKey(b.Key)) })
	clear(w.aggs)
	w.emit(w.winStart, batch)
}

// Index1Record converts an aggregate into an Index-1 record
// (dest_prefix, timestamp, fanout, source_prefix, node); ok is false
// when the aggregate falls below the fanout filter threshold.
func Index1Record(winStart uint64, a *Agg) (schema.Record, bool) {
	f := a.Fanout()
	if f < schema.FanoutThreshold {
		return nil, false
	}
	return schema.Record{a.Key.DstPrefix, winStart, f, a.Key.SrcPrefix, uint64(a.Key.Node)}, true
}

// Index2Record converts an aggregate into an Index-2 record
// (dest_prefix, timestamp, octets, source_prefix, node); ok is false
// below the octet threshold.
func Index2Record(winStart uint64, a *Agg) (schema.Record, bool) {
	if a.Octets < schema.OctetsThreshold {
		return nil, false
	}
	return schema.Record{a.Key.DstPrefix, winStart, a.Octets, a.Key.SrcPrefix, uint64(a.Key.Node)}, true
}

// Index3Record converts a port-keyed aggregate into an Index-3 record
// (dest_prefix, timestamp, flow_size, source_prefix, dest_port, node);
// ok is false below the flow-size threshold.
func Index3Record(winStart uint64, a *Agg) (schema.Record, bool) {
	fs := a.FlowSize()
	if fs < schema.FlowSizeThreshold {
		return nil, false
	}
	return schema.Record{a.Key.DstPrefix, winStart, fs, a.Key.SrcPrefix, uint64(a.Key.DstPort), uint64(a.Key.Node)}, true
}

// ReductionPoint is one cell of the Fig 1 sweep.
type ReductionPoint struct {
	WindowSec    uint64
	ThresholdKB  uint64
	RawFlows     int
	Aggregates   int // aggregates surviving the byte-volume filter
	ReductionFac float64
}

// ReductionSweep reproduces Fig 1: for each (window, threshold)
// combination it counts the aggregated-and-filtered records produced
// from the flow stream emitted by gen over [from, to). Thresholds are in
// KB and apply to aggregate byte volume (the Fig 1 y-axis counts
// Index-2-style records).
func ReductionSweep(gen func(emit func(flowgen.Flow)), windows []uint64, thresholdsKB []uint64) []ReductionPoint {
	var out []ReductionPoint
	for _, win := range windows {
		counts := make(map[uint64]int, len(thresholdsKB))
		raw := 0
		w := NewWindower(Config{WindowSec: win}, func(_ uint64, aggs []*Agg) {
			for _, a := range aggs {
				for _, th := range thresholdsKB {
					if a.Octets >= th*1024 {
						counts[th]++
					}
				}
			}
		})
		gen(func(f flowgen.Flow) {
			raw++
			w.Add(f)
		})
		w.Flush()
		for _, th := range thresholdsKB {
			p := ReductionPoint{WindowSec: win, ThresholdKB: th, RawFlows: raw, Aggregates: counts[th]}
			if counts[th] > 0 {
				p.ReductionFac = float64(raw) / float64(counts[th])
			}
			out = append(out, p)
		}
	}
	return out
}
