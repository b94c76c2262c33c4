package detect

import (
	"testing"

	"mind/internal/flowgen"
	"mind/internal/schema"
)

func cfgSmall() flowgen.Config {
	c := flowgen.DefaultConfig(77)
	c.BaseFlowsPerSec = 5
	return c
}

func TestDetectsInjectedAlphaFlow(t *testing.T) {
	g := flowgen.New(cfgSmall())
	a := flowgen.Anomaly{
		Kind: flowgen.AlphaFlow, Start: 400, Duration: 120,
		SrcPrefix: flowgen.SrcPrefix(9), DstPrefix: flowgen.DstPrefix(17), DstPort: 80,
		Routers: []int{2, 5}, Intensity: 80_000_000,
	}
	g.Inject(a)
	d := New()
	g.Generate(0, 900, func(f flowgen.Flow) { d.Add(f) })
	events := d.Finish()
	found := false
	for _, e := range events {
		if e.Kind == Volume && e.MatchesAnomaly(a, 300) {
			found = true
			if len(e.Nodes) != 2 || e.Nodes[0] != 2 || e.Nodes[1] != 5 {
				t.Errorf("node set = %v, want [2 5]", e.Nodes)
			}
		}
	}
	if !found {
		t.Fatalf("alpha flow not detected; %d events", len(events))
	}
}

func TestDetectsDoSAndScanAsFanout(t *testing.T) {
	g := flowgen.New(cfgSmall())
	dos := flowgen.Anomaly{
		Kind: flowgen.DoS, Start: 100, Duration: 120,
		SrcPrefix: flowgen.SrcPrefix(30), DstPrefix: flowgen.DstPrefix(40), DstPort: 80,
		Routers: []int{1}, Intensity: 60,
	}
	scan := flowgen.Anomaly{
		Kind: flowgen.PortScan, Start: 350, Duration: 100,
		SrcPrefix: flowgen.SrcPrefix(60), DstPrefix: flowgen.DstPrefix(70), DstPort: 3306,
		Routers: []int{3}, Intensity: 50,
	}
	g.Inject(dos)
	g.Inject(scan)
	d := New()
	g.Generate(0, 600, func(f flowgen.Flow) { d.Add(f) })
	events := d.Finish()
	if Recall(events, []flowgen.Anomaly{dos, scan}, 300) != 1 {
		t.Fatalf("fanout anomalies missed; events: %v", events)
	}
}

func TestNoFalsePositivesOnQuietTraffic(t *testing.T) {
	g := flowgen.New(cfgSmall())
	d := New()
	g.Generate(0, 600, func(f flowgen.Flow) { d.Add(f) })
	events := d.Finish()
	for _, e := range events {
		if e.Kind == Fanout {
			t.Errorf("background traffic flagged as fanout anomaly: %v", e)
		}
	}
}

func TestWindowAttribution(t *testing.T) {
	d := New()
	mk := func(ts uint64) flowgen.Flow {
		return flowgen.Flow{Node: 0, SrcIP: schema.IPv4(172, 16, 0, 1), DstIP: schema.IPv4(10, 0, 0, 1), Start: ts, Octets: 5_000_000, Packets: 5000}
	}
	d.Add(mk(10))
	d.Add(mk(400)) // next window
	events := d.Finish()
	if len(events) != 2 {
		t.Fatalf("events = %d, want one per window", len(events))
	}
	if events[0].WindowStart != 0 || events[1].WindowStart != 300 {
		t.Errorf("windows = %d, %d", events[0].WindowStart, events[1].WindowStart)
	}
}

func TestMultiNodeVolumeNormalization(t *testing.T) {
	// A flow seen at 4 monitors must not count 4× toward volume.
	d := New()
	for node := 0; node < 4; node++ {
		d.Add(flowgen.Flow{Node: node, SrcIP: schema.IPv4(172, 16, 0, 1), DstIP: schema.IPv4(10, 0, 0, 1), Start: 5, Octets: 3_000_000, Packets: 3000})
	}
	events := d.Finish()
	if len(events) != 0 {
		t.Fatalf("multi-monitor inflation: %v", events)
	}
	// But a genuinely large flow on 4 monitors is still detected.
	d2 := New()
	for node := 0; node < 4; node++ {
		d2.Add(flowgen.Flow{Node: node, SrcIP: schema.IPv4(172, 16, 0, 1), DstIP: schema.IPv4(10, 0, 0, 1), Start: 5, Octets: 5_000_000, Packets: 5000})
	}
	if len(d2.Finish()) != 1 {
		t.Fatal("large multi-monitor flow missed")
	}
}

func TestRecallEmptyTruth(t *testing.T) {
	if Recall(nil, nil, 300) != 1 {
		t.Error("vacuous recall should be 1")
	}
	a := flowgen.Anomaly{SrcPrefix: 1, DstPrefix: 2, Start: 0, Duration: 10}
	if Recall(nil, []flowgen.Anomaly{a}, 300) != 0 {
		t.Error("missed anomaly should give 0 recall")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Kind: Volume, WindowStart: 300, SrcPrefix: schema.IPv4(172, 16, 0, 0), DstPrefix: schema.IPv4(10, 0, 0, 0), Octets: 5000, Nodes: []int{1, 2}}
	if e.String() == "" || Kind(0).String() != "volume" || Kind(1).String() != "fanout" {
		t.Error("string renderings broken")
	}
}
