// Package flowgen synthesizes NetFlow-style traffic for the Abilene and
// GÉANT backbones, standing in for the proprietary 2004 traces the paper
// evaluated on. The generator reproduces the statistical properties the
// evaluation depends on:
//
//   - heavy-tailed (Zipf) popularity of source and destination prefixes,
//     which produces the storage skew of Figs 2 and 13;
//   - diurnal rate modulation with hour-of-day-dependent active prefix
//     subsets, so that day-to-day distributions are stable while
//     hour-to-hour distributions shift (Fig 3);
//   - per-router volume shares and per-network packet-sampling rates
//     (1/100 Abilene, 1/1000 GÉANT), which produce the per-link traffic
//     imbalance of Fig 12;
//   - heavy-tailed flow sizes, port mixtures, and injectable anomalies
//     (alpha flows, DoS, port scans, port-abuse tunnels) with an exact
//     ground-truth ledger for the §5 recall experiment.
//
// Generation is deterministic for a given Config.Seed and streams flows
// in timestamp order, so multi-day workloads need constant memory.
package flowgen

import (
	"fmt"
	"math"
	"math/rand"

	"mind/internal/topo"
)

// Flow is one (sampled) flow record as a monitor would export it.
type Flow struct {
	Node    int    // index into Config.Routers: the observing monitor
	SrcIP   uint64 // IPv4 host address
	DstIP   uint64
	DstPort uint16
	Start   uint64 // unix seconds
	Octets  uint64
	Packets uint64
}

// The shape of the traffic. These fix the model that stands in for the
// Abilene and GÉANT traces, not a deployment.
const (
	// Prefix universe: hosts live in NumDstPrefixes /24s (dst side) and
	// NumSrcPrefixes /24s (src side), drawn with Zipf popularity.
	NumDstPrefixes = 4096
	NumSrcPrefixes = 4096
	// ZipfS is the Zipf exponent (>1); larger means more skew.
	ZipfS = 1.15

	// DiurnalAmplitude in [0,1): rate swings between (1-A) and 1 of the
	// base across the day.
	DiurnalAmplitude = 0.6
	// HourlyChurn in [0,1]: the fraction of source prefixes that are
	// only active in a rotating hour-of-day-dependent subset, producing
	// hour-to-hour distribution shift.
	HourlyChurn = 0.5

	// HotPairs is the number of "chatty" prefix pairs that exchange
	// bursts of short connections (P2P swarms, NAT gateways, busy mail
	// relays). They give Index-1 its background population: aggregates
	// whose fanout clears the insertion threshold without being attacks.
	HotPairs = 48
	// HotPairFrac is the probability that a background emission is a
	// short-connection burst between a hot pair instead of a plain flow.
	HotPairFrac = 0.15
)

// churned is how many source prefixes HourlyChurn governs: the lowest
// indices, the Zipf head.
const churned = int(HourlyChurn * NumSrcPrefixes)

// Config tunes the generator.
type Config struct {
	Seed    int64
	Routers []topo.Router

	// BaseFlowsPerSec is the per-router flow rate at diurnal peak for a
	// router of weight 1, before sampling-rate division.
	BaseFlowsPerSec float64
}

// DefaultConfig returns a workload shaped like the paper's: the 34
// combined Abilene+GÉANT routers at 40 flows per second.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:            seed,
		Routers:         topo.Combined(),
		BaseFlowsPerSec: 40,
	}
}

func (c Config) withDefaults() Config {
	if c.BaseFlowsPerSec == 0 {
		c.BaseFlowsPerSec = 20
	}
	if len(c.Routers) == 0 {
		c.Routers = topo.Combined()
	}
	return c
}

// Generator produces deterministic synthetic traffic.
type Generator struct {
	cfg       Config
	rng       *rand.Rand
	dstZipf   *rand.Zipf
	srcZipf   *rand.Zipf
	anomalies []Anomaly
}

// New creates a generator.
func New(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Generator{
		cfg: cfg,
		rng: rng,
		// rand.Zipf draws from [0, imax] with P(k) ∝ 1/(k+1)^s.
		dstZipf: rand.NewZipf(rng, ZipfS, 1, NumDstPrefixes-1),
		srcZipf: rand.NewZipf(rng, ZipfS, 1, NumSrcPrefixes-1),
	}
}

// Config returns the generator's effective configuration.
func (g *Generator) Config() Config { return g.cfg }

// DstPrefix maps synthetic destination-prefix index i to a /24 network
// scattered deterministically across the IPv4 space (multiplicative
// hashing). Real customer prefixes are scattered the same way, which is
// what makes equi-width histograms meaningful over the address
// dimension (§3.7) and why hierarchy-aligned systems fail the paper's
// workload (§2.1).
func DstPrefix(i int) uint64 {
	return uint64(uint32(uint64(i)*2654435761)) &^ 0xff
}

// SrcPrefix maps synthetic source-prefix index i to a scattered /24,
// using a different multiplier so source and destination universes
// interleave without colliding systematically.
func SrcPrefix(i int) uint64 {
	return uint64(uint32(uint64(i)*2246822519+97)) &^ 0xff
}

// wellKnownPorts is the port mixture for background traffic.
var wellKnownPorts = []uint16{80, 443, 25, 53, 110, 143, 22, 3306}

// diurnalFactor returns the rate multiplier at unix second t.
func (g *Generator) diurnalFactor(t uint64) float64 {
	secOfDay := float64(t % 86400)
	// Peak around 14:00, trough around 02:00.
	phase := 2 * math.Pi * (secOfDay/86400 - 14.0/24)
	return 1 - DiurnalAmplitude*(1-math.Cos(phase))/2
}

// srcActive reports whether a churn-governed source prefix is active in
// the hour containing t. A deterministic hash rotates the active subset
// with the hour of day, so the same hours on different days activate the
// same subsets (daily stationarity) while adjacent hours differ.
func srcActive(prefix int, t uint64) bool {
	// The top (1-churn) fraction of prefixes is always active.
	if prefix >= churned {
		return true
	}
	hourOfDay := (t / 3600) % 24
	h := uint64(prefix)*2654435761 + hourOfDay*40503
	h ^= h >> 16
	return h%3 == 0 // each churned prefix is active ~8 hours a day
}

// flowOctets draws a heavy-tailed flow size (post-sampling scale).
func (g *Generator) flowOctets() uint64 {
	// Log-normal body with a Pareto tail: most flows are hundreds of
	// bytes to tens of KB; rare flows reach many MB.
	if g.rng.Float64() < 0.001 {
		// Tail: Pareto alpha=1.2, min 100 KB.
		u := g.rng.Float64()
		return uint64(100_000 * math.Pow(1-u, -1/1.2))
	}
	v := math.Exp(g.rng.NormFloat64()*1.6 + 6.5) // median ~665B
	return uint64(v) + 40
}

// GenerateSecond emits all background flows for unix second t, in
// arbitrary order within the second, to emit. Anomalous flows are
// interleaved by Generate; use Generate for full traces.
func (g *Generator) GenerateSecond(t uint64, emit func(Flow)) {
	for node, r := range g.cfg.Routers {
		rate := g.cfg.BaseFlowsPerSec * r.Weight * g.diurnalFactor(t)
		// Sampling rate thins the exported flow records: GÉANT routers
		// export ~10× fewer records than Abilene for the same traffic.
		rate *= 100.0 / float64(r.Network.SamplingRate())
		n := g.poisson(rate)
		for i := 0; i < n; i++ {
			g.emitBackground(node, t, emit)
		}
	}
}

func (g *Generator) emitBackground(node int, t uint64, emit func(Flow)) {
	if g.rng.Float64() < HotPairFrac {
		g.emitHotBurst(node, t, emit)
		return
	}
	dst := int(g.dstZipf.Uint64())
	src := int(g.srcZipf.Uint64())
	if !srcActive(src, t) {
		// Redirect the draw to an always-active prefix.
		src = churned + src%(NumSrcPrefixes-churned)
	}
	port := wellKnownPorts[g.rng.Intn(len(wellKnownPorts))]
	if g.rng.Float64() < 0.25 {
		port = uint16(1024 + g.rng.Intn(64511))
	}
	oct := g.flowOctets()
	emit(Flow{
		Node:    node,
		SrcIP:   SrcPrefix(src) | uint64(1+g.rng.Intn(254)),
		DstIP:   DstPrefix(dst) | uint64(1+g.rng.Intn(254)),
		DstPort: port,
		Start:   t,
		Octets:  oct,
		Packets: 1 + oct/600,
	})
}

// emitHotBurst emits a burst of short connections between one of the
// chatty prefix pairs. Pair popularity is Zipf-like via the square of a
// uniform draw.
func (g *Generator) emitHotBurst(node int, t uint64, emit func(Flow)) {
	u := g.rng.Float64()
	pair := int(u * u * HotPairs)
	if pair >= HotPairs {
		pair = HotPairs - 1
	}
	// Stable pair → prefix mapping, disjoint from the Zipf universes'
	// hottest entries only by chance; overlap is harmless.
	src := SrcPrefix(10000 + pair*13)
	dst := DstPrefix(20000 + pair*29)
	port := wellKnownPorts[pair%len(wellKnownPorts)]
	burst := 2 + g.rng.Intn(5)
	for i := 0; i < burst; i++ {
		emit(Flow{
			Node:    node,
			SrcIP:   src | uint64(1+g.rng.Intn(254)),
			DstIP:   dst | uint64(1+g.rng.Intn(254)),
			DstPort: port,
			Start:   t,
			Octets:  40 + uint64(g.rng.Intn(300)),
			Packets: 1,
		})
	}
}

// poisson draws a Poisson variate by inversion (rates here are small).
func (g *Generator) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation for large rates.
		n := int(math.Round(g.rng.NormFloat64()*math.Sqrt(lambda) + lambda))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= g.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Generate streams all flows (background plus injected anomalies) for
// unix seconds [from, to), in nondecreasing timestamp order.
func (g *Generator) Generate(from, to uint64, emit func(Flow)) {
	for t := from; t < to; t++ {
		g.GenerateSecond(t, emit)
		for i := range g.anomalies {
			g.emitAnomalySecond(&g.anomalies[i], t, emit)
		}
	}
}

func (g *Generator) String() string {
	return fmt.Sprintf("flowgen(routers=%d, dst=%d, src=%d, zipf=%.2f)",
		len(g.cfg.Routers), NumDstPrefixes, NumSrcPrefixes, ZipfS)
}
