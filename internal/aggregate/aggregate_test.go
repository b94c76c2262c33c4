package aggregate

import (
	"testing"

	"mind/internal/flowgen"
	"mind/internal/schema"
)

func flow(node int, src, dst uint64, port uint16, t, octets uint64) flowgen.Flow {
	return flowgen.Flow{Node: node, SrcIP: src, DstIP: dst, DstPort: port, Start: t, Octets: octets, Packets: 1 + octets/600}
}

func TestWindowingBoundaries(t *testing.T) {
	var windows []uint64
	var batches [][]*Agg
	w := NewWindower(Config{WindowSec: 30}, func(ws uint64, aggs []*Agg) {
		windows = append(windows, ws)
		batches = append(batches, aggs)
	})
	src, dst := schema.IPv4(172, 16, 1, 5), schema.IPv4(10, 0, 2, 9)
	w.Add(flow(0, src, dst, 80, 0, 1000))
	w.Add(flow(0, src, dst, 80, 29, 1000)) // same window
	w.Add(flow(0, src, dst, 80, 30, 1000)) // next window
	w.Add(flow(0, src, dst, 80, 95, 1000)) // two windows later (gap)
	w.Flush()
	if len(windows) != 3 {
		t.Fatalf("windows = %v", windows)
	}
	if windows[0] != 0 || windows[1] != 30 || windows[2] != 90 {
		t.Fatalf("window starts = %v", windows)
	}
	if batches[0][0].Octets != 2000 || batches[0][0].Flows != 2 {
		t.Errorf("first window agg: %+v", batches[0][0])
	}
}

func TestAggregationKeying(t *testing.T) {
	var got []*Agg
	w := NewWindower(Config{WindowSec: 30}, func(_ uint64, aggs []*Agg) { got = aggs })
	// Same prefix pair, different hosts → one aggregate.
	w.Add(flow(1, schema.IPv4(172, 16, 1, 5), schema.IPv4(10, 0, 2, 9), 80, 0, 500))
	w.Add(flow(1, schema.IPv4(172, 16, 1, 200), schema.IPv4(10, 0, 2, 17), 443, 0, 700))
	// Different node → separate aggregate.
	w.Add(flow(2, schema.IPv4(172, 16, 1, 5), schema.IPv4(10, 0, 2, 9), 80, 0, 100))
	// Different dst prefix → separate aggregate.
	w.Add(flow(1, schema.IPv4(172, 16, 1, 5), schema.IPv4(10, 0, 3, 9), 80, 0, 100))
	w.Flush()
	if len(got) != 3 {
		t.Fatalf("aggregates = %d, want 3", len(got))
	}
	var main *Agg
	for _, a := range got {
		if a.Key.Node == 1 && a.Key.DstPrefix == schema.IPv4(10, 0, 2, 0) {
			main = a
		}
	}
	if main == nil || main.Octets != 1200 || main.Connections() != 2 {
		t.Fatalf("main agg = %+v", main)
	}
}

func TestSplitPorts(t *testing.T) {
	var got []*Agg
	w := NewWindower(Config{WindowSec: 30, SplitPorts: true}, func(_ uint64, aggs []*Agg) { got = aggs })
	src, dst := schema.IPv4(172, 16, 1, 5), schema.IPv4(10, 0, 2, 9)
	w.Add(flow(0, src, dst, 80, 0, 500))
	w.Add(flow(0, src, dst, 53, 0, 500))
	w.Flush()
	if len(got) != 2 {
		t.Fatalf("port-split aggregates = %d, want 2", len(got))
	}
}

func TestFanoutCountsShortAttempts(t *testing.T) {
	var got []*Agg
	w := NewWindower(Config{WindowSec: 30}, func(_ uint64, aggs []*Agg) { got = aggs })
	src := schema.IPv4(172, 16, 9, 13)
	// 20 short probes to distinct hosts + 1 big flow.
	for i := 0; i < 20; i++ {
		w.Add(flow(0, src, schema.IPv4(10, 0, 5, byte(1+i)), 3306, 0, 40))
	}
	w.Add(flow(0, src, schema.IPv4(10, 0, 5, 99), 3306, 0, 900_000))
	// A short repeat to an already-probed host is another attempt (the
	// fanout attribute counts attempts, so floods exceed the 254-host
	// cap of a /24).
	w.Add(flow(0, src, schema.IPv4(10, 0, 5, 1), 3306, 1, 40))
	w.Flush()
	if len(got) != 1 {
		t.Fatalf("aggregates = %d", len(got))
	}
	a := got[0]
	if a.Fanout() != 21 {
		t.Errorf("fanout = %d, want 21 short attempts", a.Fanout())
	}
	if a.Connections() != 21 {
		t.Errorf("connections = %d, want 21 distinct", a.Connections())
	}
	if a.FlowSize() == 0 {
		t.Error("flow size zero")
	}
	// The big flow is not a short attempt.
	if a.Fanout() >= uint64(a.Flows) {
		t.Errorf("fanout %d must exclude the large flow among %d flows", a.Fanout(), a.Flows)
	}
}

func TestIndexRecordConversions(t *testing.T) {
	var got []*Agg
	w := NewWindower(Config{WindowSec: 30}, func(_ uint64, aggs []*Agg) { got = aggs })
	src := schema.IPv4(172, 16, 9, 13)
	for i := 0; i < 30; i++ {
		w.Add(flow(3, src, schema.IPv4(10, 0, 5, byte(1+i)), 80, 60, 50))
	}
	w.Add(flow(3, src, schema.IPv4(10, 0, 5, 200), 80, 60, 200_000))
	w.Flush()
	a := got[0]

	r1, ok := Index1Record(60, a)
	if !ok {
		t.Fatal("Index1Record filtered a 30-fanout aggregate")
	}
	if r1[0] != schema.IPv4(10, 0, 5, 0) || r1[1] != 60 || r1[2] != 30 || r1[3] != schema.IPv4(172, 16, 9, 0) || r1[4] != 3 {
		t.Errorf("Index1 record = %v", r1)
	}
	r2, ok := Index2Record(60, a)
	if !ok || r2[2] != a.Octets {
		t.Errorf("Index2 record = %v ok=%v", r2, ok)
	}

	// Small aggregate: filtered everywhere.
	var small []*Agg
	w2 := NewWindower(Config{WindowSec: 30}, func(_ uint64, aggs []*Agg) { small = aggs })
	w2.Add(flow(0, src, schema.IPv4(10, 0, 7, 1), 80, 0, 100))
	w2.Flush()
	if _, ok := Index1Record(0, small[0]); ok {
		t.Error("low-fanout aggregate passed Index-1 filter")
	}
	if _, ok := Index2Record(0, small[0]); ok {
		t.Error("small aggregate passed Index-2 filter")
	}
	if _, ok := Index3Record(0, small[0]); ok {
		t.Error("small aggregate passed Index-3 filter")
	}
}

func TestIndex3Record(t *testing.T) {
	var got []*Agg
	w := NewWindower(Config{WindowSec: 30, SplitPorts: true}, func(_ uint64, aggs []*Agg) { got = aggs })
	src, dst := schema.IPv4(172, 16, 2, 7), schema.IPv4(10, 0, 9, 5)
	// Two connections, 100 KB total → flow size 50 KB on port 53.
	w.Add(flow(5, src, dst, 53, 0, 50_000))
	w.Add(flow(5, src+1, dst, 53, 0, 50_000))
	w.Flush()
	r3, ok := Index3Record(0, got[0])
	if !ok {
		t.Fatal("Index3 filtered a 50KB-per-connection aggregate")
	}
	if r3[2] != 50_000 || r3[4] != 53 || r3[5] != 5 {
		t.Errorf("Index3 record = %v", r3)
	}
}

func TestEmptyFlush(t *testing.T) {
	calls := 0
	w := NewWindower(Config{}, func(uint64, []*Agg) { calls++ })
	w.Flush()
	if calls != 0 {
		t.Error("flush on empty windower emitted")
	}
}

func TestDeterministicEmitOrder(t *testing.T) {
	run := func() []Key {
		var keys []Key
		w := NewWindower(Config{WindowSec: 30}, func(_ uint64, aggs []*Agg) {
			for _, a := range aggs {
				keys = append(keys, a.Key)
			}
		})
		for i := 0; i < 50; i++ {
			w.Add(flow(i%3, schema.IPv4(172, 16, byte(i%7), 1), schema.IPv4(10, 0, byte(i%5), 1), 80, 0, 1000))
		}
		w.Flush()
		return keys
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic batch size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic emit order")
		}
	}
}

func TestReductionSweepFig1Shape(t *testing.T) {
	cfg := flowgen.DefaultConfig(99)
	cfg.BaseFlowsPerSec = 20
	g := flowgen.New(cfg)
	gen := func(emit func(flowgen.Flow)) { g.Generate(0, 1800, emit) }

	points := ReductionSweep(gen, []uint64{1, 30, 300}, []uint64{0, 50})
	if len(points) != 6 {
		t.Fatalf("sweep points = %d", len(points))
	}
	get := func(win, th uint64) ReductionPoint {
		for _, p := range points {
			if p.WindowSec == win && p.ThresholdKB == th {
				return p
			}
		}
		t.Fatalf("missing point %d/%d", win, th)
		return ReductionPoint{}
	}
	// Larger windows and thresholds → fewer records (Fig 1 monotonicity).
	if !(get(1, 0).Aggregates >= get(30, 0).Aggregates && get(30, 0).Aggregates >= get(300, 0).Aggregates) {
		t.Errorf("window monotonicity violated: %+v", points)
	}
	if !(get(30, 0).Aggregates > get(30, 50).Aggregates) {
		t.Errorf("threshold monotonicity violated")
	}
	// The paper's headline: 30s + 50KB gives large reduction vs raw.
	p := get(30, 50)
	if p.ReductionFac < 10 {
		t.Errorf("30s/50KB reduction factor = %.1f, want >= 10", p.ReductionFac)
	}
	if p.RawFlows == 0 || p.Aggregates == 0 {
		t.Errorf("degenerate sweep point: %+v", p)
	}
}
