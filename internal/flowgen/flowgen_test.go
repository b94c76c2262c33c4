package flowgen

import (
	"math"
	"testing"

	"mind/internal/schema"
	"mind/internal/topo"
)

func smallConfig(seed int64) Config {
	c := DefaultConfig(seed)
	c.BaseFlowsPerSec = 5
	return c
}

func TestDeterminism(t *testing.T) {
	collect := func() []Flow {
		g := New(smallConfig(42))
		var out []Flow
		g.Generate(0, 60, func(f Flow) { out = append(out, f) })
		return out
	}
	a, b := collect(), collect()
	if len(a) == 0 {
		t.Fatal("no flows generated")
	}
	if len(a) != len(b) {
		t.Fatalf("different counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d differs", i)
		}
	}
}

func TestTimestampOrderAndValidity(t *testing.T) {
	g := New(smallConfig(1))
	prev := uint64(0)
	n := 0
	g.Generate(100, 160, func(f Flow) {
		n++
		if f.Start < prev {
			t.Fatalf("timestamps out of order: %d after %d", f.Start, prev)
		}
		prev = f.Start
		if f.Start < 100 || f.Start >= 160 {
			t.Fatalf("timestamp %d outside window", f.Start)
		}
		if f.Node < 0 || f.Node >= len(g.Config().Routers) {
			t.Fatalf("bad node %d", f.Node)
		}
		if f.Octets == 0 || f.Packets == 0 {
			t.Fatal("empty flow")
		}
		if f.SrcIP > 0xffffffff || f.DstIP > 0xffffffff {
			t.Fatalf("flow outside IPv4 space: src=%s dst=%s",
				schema.FormatIPv4(f.SrcIP), schema.FormatIPv4(f.DstIP))
		}
		if f.SrcIP&0xff == 0 || f.DstIP&0xff == 0 {
			t.Fatal("host part must be nonzero")
		}
	})
	if n == 0 {
		t.Fatal("no flows")
	}
}

func TestZipfSkew(t *testing.T) {
	g := New(smallConfig(7))
	counts := map[uint64]int{}
	total := 0
	g.Generate(0, 300, func(f Flow) {
		counts[schema.Prefix24(f.DstIP)]++
		total++
	})
	top := 0
	for _, c := range counts {
		if c > top {
			top = c
		}
	}
	// Zipf s=1.15: the hottest /24 should hold a large share.
	if float64(top)/float64(total) < 0.05 {
		t.Errorf("top prefix share %.3f too flat for Zipf", float64(top)/float64(total))
	}
	if len(counts) < 20 {
		t.Errorf("only %d distinct prefixes", len(counts))
	}
}

func TestDiurnalModulation(t *testing.T) {
	g := New(smallConfig(9))
	count := func(startHour int) int {
		n := 0
		start := uint64(startHour * 3600)
		g.Generate(start, start+600, func(Flow) { n++ })
		return n
	}
	peak := count(14)  // 14:00
	trough := count(2) // 02:00
	if float64(trough) > 0.75*float64(peak) {
		t.Errorf("diurnal modulation weak: trough=%d peak=%d", trough, peak)
	}
}

func TestSamplingRateAsymmetry(t *testing.T) {
	// Abilene monitors (1/100 sampling) must emit ~10× the records of
	// GÉANT monitors (1/1000) per unit weight.
	g := New(smallConfig(11))
	rs := g.Config().Routers
	abilene, geant := 0.0, 0.0
	abW, geW := 0.0, 0.0
	for _, r := range rs {
		if r.Network == topo.Abilene {
			abW += r.Weight
		} else {
			geW += r.Weight
		}
	}
	g.Generate(36000, 36600, func(f Flow) {
		if rs[f.Node].Network == topo.Abilene {
			abilene++
		} else {
			geant++
		}
	})
	ratio := (abilene / abW) / (geant / geW)
	if ratio < 6 || ratio > 16 {
		t.Errorf("Abilene/GÉANT per-weight record ratio = %.1f, want ≈10", ratio)
	}
}

func TestHourlyChurnShiftsDistribution(t *testing.T) {
	g := New(smallConfig(13))
	hist := func(startSec uint64) map[uint64]float64 {
		m := map[uint64]float64{}
		n := 0.0
		g.Generate(startSec, startSec+900, func(f Flow) {
			m[schema.Prefix24(f.SrcIP)]++
			n++
		})
		for k := range m {
			m[k] /= n
		}
		return m
	}
	l1 := func(a, b map[uint64]float64) float64 {
		keys := map[uint64]bool{}
		for k := range a {
			keys[k] = true
		}
		for k := range b {
			keys[k] = true
		}
		s := 0.0
		for k := range keys {
			s += math.Abs(a[k] - b[k])
		}
		return s / 2
	}
	h10 := hist(10 * 3600)
	h14 := hist(14 * 3600)
	h10NextDay := hist(86400 + 10*3600)
	hourly := l1(h10, h14)
	daily := l1(h10, h10NextDay)
	if daily >= hourly {
		t.Errorf("daily mismatch %.3f should be below hourly %.3f", daily, hourly)
	}
}

func TestPoisson(t *testing.T) {
	g := New(smallConfig(17))
	for _, lambda := range []float64{0, 0.5, 3, 50} {
		n := 10000
		sum := 0
		for i := 0; i < n; i++ {
			sum += g.poisson(lambda)
		}
		mean := float64(sum) / float64(n)
		if math.Abs(mean-lambda) > 0.15*lambda+0.05 {
			t.Errorf("poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestFlowOctetsHeavyTail(t *testing.T) {
	g := New(smallConfig(19))
	var big, n int
	var max uint64
	for i := 0; i < 200000; i++ {
		o := g.flowOctets()
		n++
		if o > 100_000 {
			big++
		}
		if o > max {
			max = o
		}
	}
	if big == 0 {
		t.Error("no tail flows in 200k draws")
	}
	if max < 1_000_000 {
		t.Errorf("max flow only %d bytes; tail too light", max)
	}
}

func TestAnomalyInjection(t *testing.T) {
	g := New(smallConfig(23))
	idx := g.Inject(Anomaly{
		Kind: AlphaFlow, Start: 100, Duration: 10,
		SrcPrefix: SrcPrefix(5), DstPrefix: DstPrefix(8), DstPort: 80,
		Routers: []int{2, 3}, Intensity: 50_000_000,
	})
	if idx != 0 || len(g.Anomalies()) != 1 {
		t.Fatal("ledger wrong")
	}
	seen := map[int]uint64{}
	g.Generate(95, 120, func(f Flow) {
		if schema.Prefix24(f.DstIP) == DstPrefix(8) && schema.Prefix24(f.SrcIP) == SrcPrefix(5) {
			seen[f.Node] += f.Octets
		}
	})
	if seen[2] < 40_000_000 || seen[3] < 40_000_000 {
		t.Errorf("alpha flow volumes per router: %v", seen)
	}
	// Not active outside its window.
	outside := uint64(0)
	g.Generate(200, 210, func(f Flow) {
		if schema.Prefix24(f.SrcIP) == SrcPrefix(5) && schema.Prefix24(f.DstIP) == DstPrefix(8) {
			outside += f.Octets
		}
	})
	if outside > 1_000_000 {
		t.Errorf("anomaly leaked outside window: %d bytes", outside)
	}
}

func TestDoSFanout(t *testing.T) {
	g := New(smallConfig(29))
	g.Inject(Anomaly{
		Kind: DoS, Start: 50, Duration: 30,
		SrcPrefix: SrcPrefix(100), DstPrefix: DstPrefix(30), DstPort: 80,
		Routers: []int{0}, Intensity: 80,
	})
	srcs := map[uint64]bool{}
	flows := 0
	g.Generate(50, 80, func(f Flow) {
		if schema.Prefix24(f.SrcIP) == SrcPrefix(100) {
			srcs[f.SrcIP] = true
			flows++
		}
	})
	if len(srcs) < 50 {
		t.Errorf("DoS used only %d distinct sources", len(srcs))
	}
	if flows < 30*70 {
		t.Errorf("DoS emitted only %d flows", flows)
	}
}

func TestPortScanSweepsHosts(t *testing.T) {
	g := New(smallConfig(31))
	g.Inject(Anomaly{
		Kind: PortScan, Start: 10, Duration: 20,
		SrcPrefix: SrcPrefix(50), DstPrefix: DstPrefix(60), DstPort: 3306,
		Routers: []int{1}, Intensity: 40,
	})
	hosts := map[uint64]bool{}
	g.Generate(10, 30, func(f Flow) {
		if schema.Prefix24(f.DstIP) == DstPrefix(60) && f.DstPort == 3306 {
			hosts[f.DstIP] = true
		}
	})
	if len(hosts) < 100 {
		t.Errorf("scan touched only %d hosts", len(hosts))
	}
}

func TestStandardAnomalies(t *testing.T) {
	g := New(smallConfig(37))
	as := g.StandardAnomalies(1000)
	if len(as) != 6 {
		t.Fatalf("standard ledger = %d anomalies", len(as))
	}
	kinds := map[AnomalyKind]int{}
	for _, a := range as {
		kinds[a.Kind]++
		if !a.Active(a.Start) || a.Active(a.Start+a.Duration) {
			t.Error("Active window wrong")
		}
	}
	if kinds[AlphaFlow] != 3 || kinds[DoS] != 2 || kinds[PortScan] != 1 {
		t.Errorf("kind mix = %v", kinds)
	}
}

func TestGroundTruthRect(t *testing.T) {
	a := Anomaly{Kind: AlphaFlow, Start: 720, Duration: 60}
	r := a.GroundTruthRect(true, 86400)
	if !r.Valid() {
		t.Fatal("invalid rect")
	}
	if r.Lo[1] != 600 || r.Hi[1] != 899 {
		t.Errorf("time window = [%d,%d], want the surrounding 5-min window", r.Lo[1], r.Hi[1])
	}
	wantFloor := uint64(4_000_000)
	if wantFloor > schema.OctetsBound {
		wantFloor = schema.OctetsBound
	}
	if r.Lo[2] != wantFloor {
		t.Errorf("volume floor = %d, want %d (clamped to bound)", r.Lo[2], wantFloor)
	}
	s := Anomaly{Kind: PortScan, Start: 720, Duration: 60}
	rs := s.GroundTruthRect(false, 86400)
	if rs.Lo[2] != 1500 {
		t.Errorf("fanout floor = %d", rs.Lo[2])
	}
}

func TestAnomalyKindString(t *testing.T) {
	if AlphaFlow.String() != "alpha-flow" || AnomalyKind(99).String() == "" {
		t.Error("kind names wrong")
	}
}
