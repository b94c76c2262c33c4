package main

import (
	"math"
	"math/rand"
	"sort"

	"mind/internal/schema"
)

// The benchmark owns its input generator (it does not use
// internal/flowgen) so that a change to the product cannot move the
// workload: -seed is the only input, and no value below depends on the
// wall clock.
const (
	numDestPrefixes = 4096  // Zipf-ranked /24 destination prefixes
	numSrcPrefixes  = 16384 // Zipf-ranked source prefixes
	zipfS           = 1.2
	windowSec       = 30    // aggregation window: timestamps step in these
	daySec          = 86400 // one index version; every timestamp stays below it
	hourSec         = 3600
	arity           = 5
	bigOctets       = 256 * 1024 // narrow queries ask for octets >= this
	// narrowSpanRecords sizes a narrow query's time span (narrowSpan).
	narrowSpanRecords = 800
	numMonitors       = 64
)

// Attribute positions of an Index-2 record.
const (
	attrDest = iota
	attrTime
	attrOctets
	attrSrc
	attrNode
)

// Salts separate the independent random streams drawn from one seed, so
// the length of one stream never shifts the contents of another.
const (
	saltTables = 0x7461626c
	saltLoad   = 0x6c6f6164
	saltStream = 0x7374726d
	saltNarrow = 0x6e617272
	saltWide   = 0x77696465
	saltAgg    = 0x61676772
	saltClient = 0x636c6e74
)

// tables holds the rank → prefix maps every stream draws from. The
// prefix population is the same for every seed: where the few heaviest
// prefixes fall relative to the overlay's cuts decides how evenly the
// nodes are loaded, and that belongs to the fixed set-up, not to the
// sample a seed draws. The seed decides which records and rectangles are
// drawn from the population.
type tables struct {
	seed int64
	dest []uint64 // rank → /24 prefix (low 8 bits zero), scattered over 32 bits
	src  []uint64
}

func newTables(seed int64) *tables {
	rng := rand.New(rand.NewSource(saltTables))
	return &tables{seed: seed, dest: distinctPrefixes(rng, numDestPrefixes), src: distinctPrefixes(rng, numSrcPrefixes)}
}

func distinctPrefixes(rng *rand.Rand, n int) []uint64 {
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		p := uint64(rng.Intn(1<<24)) << 8
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

func (t *tables) rng(salt int64) *rand.Rand { return rand.New(rand.NewSource(t.seed ^ salt)) }

// records generates n records whose timestamps rise through [t0, t1) in
// 30 s aggregation windows — the shape a real monitor stream has, and
// the one the store's merge behaviour depends on. The result is flat:
// record i occupies out[i*arity:(i+1)*arity].
func (t *tables) records(salt int64, n int, t0, t1 uint64) []uint64 {
	rng := t.rng(salt)
	destZ := rand.NewZipf(rng, zipfS, 1, numDestPrefixes-1)
	srcZ := rand.NewZipf(rng, zipfS, 1, numSrcPrefixes-1)
	lnLo := math.Log(schema.OctetsThreshold)
	lnSpan := math.Log(schema.OctetsBound) - lnLo
	out := make([]uint64, n*arity)
	for i := 0; i < n; i++ {
		rec := out[i*arity : (i+1)*arity]
		rec[attrDest] = t.dest[destZ.Uint64()]
		rec[attrTime] = t0 + uint64(i)*(t1-t0)/uint64(n)/windowSec*windowSec
		oct := uint64(math.Exp(lnLo + rng.Float64()*lnSpan))
		if oct >= schema.OctetsBound {
			oct = schema.OctetsBound - 1
		}
		rec[attrOctets] = oct
		rec[attrSrc] = t.src[srcZ.Uint64()]
		rec[attrNode] = uint64(rng.Intn(numMonitors))
	}
	return out
}

// queryKind names the client operations the workloads issue.
type queryKind uint8

const (
	opInsert queryKind = iota
	opNarrow
	opWide
	opAggAligned
	opAggUnaligned
	opReadYourWrite
	numOpKinds
)

var opNames = [numOpKinds]string{"insert", "narrow", "wide", "agg_aligned", "agg_unaligned", "read_your_write"}

const aggTopK = 8

func rect3(d0, d1, t0, t1, o0, o1 uint64) schema.Rect {
	return schema.Rect{Lo: []uint64{d0, t0, o0}, Hi: []uint64{d1, t1, o1}}
}

// narrowRect asks for one /24 destination prefix over [t0, t1] with
// octets >= 256 KB.
func narrowRect(prefix, t0, t1 uint64) schema.Rect {
	return rect3(prefix, prefix|0xff, t0, t1, bigOctets, schema.OctetsBound)
}

// timeRect asks for every prefix and every octet count over [t0, t1].
func timeRect(t0, t1 uint64) schema.Rect {
	return rect3(0, 0xffffffff, t0, t1, 0, schema.OctetsBound)
}

// narrowSpan is the time span of a narrow query over a stream of n
// records spread through [t0, t1): the whole windows that hold about
// narrowSpanRecords records of all prefixes. With a Zipf-chosen prefix
// the answer is then a handful to tens of records at any scale (the
// heaviest prefix, a fifth of all records, returns about a hundred). A
// fixed hour would return hundreds to thousands at the benchmark's
// record density and turn a point lookup into a scan.
func narrowSpan(n int, t0, t1 uint64) uint64 {
	windows := (narrowSpanRecords*(t1-t0)/uint64(n) + windowSec/2) / windowSec
	return max(windows, 1) * windowSec
}

// narrowPool draws n narrow queries: a Zipf-chosen prefix over span
// seconds starting at a window boundary inside [t0, t1).
func (t *tables) narrowPool(n int, t0, t1, span uint64) []schema.Rect {
	rng := t.rng(saltNarrow)
	destZ := rand.NewZipf(rng, zipfS, 1, numDestPrefixes-1)
	out := make([]schema.Rect, n)
	for i := range out {
		start := t0 + uint64(rng.Intn(int((t1-t0-span)/windowSec)+1))*windowSec
		out[i] = narrowRect(t.dest[destZ.Uint64()], start, start+span-1)
	}
	return out
}

// widePool draws n wide queries: every prefix and octet count over ten
// minutes starting at a window boundary inside [t0, t1).
func (t *tables) widePool(n int, t0, t1 uint64) []schema.Rect {
	rng := t.rng(saltWide)
	out := make([]schema.Rect, n)
	for i := range out {
		start := t0 + uint64(rng.Intn(int((t1-t0-600)/windowSec)+1))*windowSec
		out[i] = timeRect(start, start+599)
	}
	return out
}

// dyadicCells halves [0, bound] levels times with the inclusive midpoint
// rule the summary rollup and the embedding both use (left [lo, mid],
// right [mid+1, hi]), so a returned cell is exactly one rollup cell.
func dyadicCells(bound uint64, levels int) [][2]uint64 {
	cells := [][2]uint64{{0, bound}}
	for l := 0; l < levels; l++ {
		next := make([][2]uint64, 0, 2*len(cells))
		for _, c := range cells {
			mid := c[0] + (c[1]-c[0])/2
			next = append(next, [2]uint64{c[0], mid}, [2]uint64{mid + 1, c[1]})
		}
		cells = next
	}
	return cells
}

// aggPools draws the aligned pool (one dyadic eighth of the day; the
// last eighth is left out because its top edge is the version boundary)
// and the unaligned pool (six hours at an offset that is on no cell
// edge).
func (t *tables) aggPools(n int) (aligned, unaligned []schema.Rect) {
	rng := t.rng(saltAgg)
	cells := dyadicCells(daySec, 3)
	cells = cells[:len(cells)-1]
	for i := 0; i < n; i++ {
		c := cells[rng.Intn(len(cells))]
		aligned = append(aligned, timeRect(c[0], c[1]))
		start := uint64(rng.Intn((daySec-6*hourSec)/windowSec))*windowSec + 7
		unaligned = append(unaligned, timeRect(start, start+6*hourSec-1))
	}
	return aligned, unaligned
}

// clientRecord is insert number seq of closed-loop client c. Its octets
// stay below bigOctets so that it can never change the answer of a
// narrow query, and (source, node) = (seq, c) make it unique, which is
// what the read-your-write check looks for.
func (t *tables) clientRecord(rng *rand.Rand, destZ *rand.Zipf, c int, seq uint64) []uint64 {
	oct := schema.OctetsThreshold + uint64(rng.Intn(bigOctets-schema.OctetsThreshold))
	ts := uint64(rng.Intn(daySec/windowSec)) * windowSec
	return []uint64{t.dest[destZ.Uint64()], ts, oct, seq, uint64(c)}
}

// digest folds 64-bit words into an order-dependent fingerprint of the
// generated inputs; it is printed with every run as input_digest.
type digest uint64

func (d *digest) words(ws []uint64) {
	h := uint64(*d)
	for _, w := range ws {
		h = (h ^ w) * 0x100000001b3
		h ^= h >> 29
	}
	*d = digest(h)
}

func (d *digest) rects(rs []schema.Rect) {
	for _, r := range rs {
		d.words(r.Lo)
		d.words(r.Hi)
	}
}

// recHash is the per-record term of the order-independent answer
// checksum: answers are compared by count and the wrapping sum of
// recHash over their records.
func recHash(rec []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range rec {
		h = (h ^ v) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	return h
}

// oracle answers, in O(log n), what a settled cluster must return for
// the rectangle shapes the workloads use. It is built in set-up from
// the generated records alone (time-ordered), as prefix sums: cumulative
// record hashes and attribute sums over all records, and per
// destination prefix the timestamps with cumulative counts and hashes
// of the records at or above bigOctets.
type oracle struct {
	ts      []uint64        // record timestamps, non-decreasing
	cumHash []uint64        // cumHash[i] = Σ recHash(rec[j]), j < i
	cumSum  [arity][]uint64 // cumSum[a][i] = Σ rec[j][a], j < i
	prefix  map[uint64]*prefixIndex
}

type prefixIndex struct {
	ts         []uint64
	cumBig     []uint32 // records with octets >= bigOctets before position i
	cumBigHash []uint64
}

func newOracle(flat []uint64) *oracle {
	n := len(flat) / arity
	o := &oracle{ts: make([]uint64, n), cumHash: make([]uint64, n+1), prefix: make(map[uint64]*prefixIndex)}
	for a := range o.cumSum {
		o.cumSum[a] = make([]uint64, n+1)
	}
	for i := 0; i < n; i++ {
		rec := flat[i*arity : (i+1)*arity]
		h := recHash(rec)
		o.ts[i] = rec[attrTime]
		o.cumHash[i+1] = o.cumHash[i] + h
		for a := range o.cumSum {
			o.cumSum[a][i+1] = o.cumSum[a][i] + rec[a]
		}
		px := o.prefix[rec[attrDest]]
		if px == nil {
			px = &prefixIndex{cumBig: []uint32{0}, cumBigHash: []uint64{0}}
			o.prefix[rec[attrDest]] = px
		}
		big, bigHash := px.cumBig[len(px.ts)], px.cumBigHash[len(px.ts)]
		if rec[attrOctets] >= bigOctets {
			big++
			bigHash += h
		}
		px.ts = append(px.ts, rec[attrTime])
		px.cumBig = append(px.cumBig, big)
		px.cumBigHash = append(px.cumBigHash, bigHash)
	}
	return o
}

// timeSpan returns the index range [lo, hi) of timestamps inside [t0, t1].
func timeSpan(ts []uint64, t0, t1 uint64) (lo, hi int) {
	lo = sort.Search(len(ts), func(i int) bool { return ts[i] >= t0 })
	hi = sort.Search(len(ts), func(i int) bool { return ts[i] > t1 })
	return lo, hi
}

// narrow is the expected count and checksum of a narrowRect.
func (o *oracle) narrow(r schema.Rect) (count int, sum uint64) {
	px := o.prefix[r.Lo[attrDest]]
	if px == nil {
		return 0, 0
	}
	lo, hi := timeSpan(px.ts, r.Lo[attrTime], r.Hi[attrTime])
	return int(px.cumBig[hi] - px.cumBig[lo]), px.cumBigHash[hi] - px.cumBigHash[lo]
}

// wide is the expected count and checksum of a timeRect.
func (o *oracle) wide(r schema.Rect) (count int, sum uint64) {
	lo, hi := timeSpan(o.ts, r.Lo[attrTime], r.Hi[attrTime])
	return hi - lo, o.cumHash[hi] - o.cumHash[lo]
}

// agg is the expected COUNT and per-attribute SUM of a timeRect.
func (o *oracle) agg(r schema.Rect) (count uint64, sums [arity]uint64) {
	lo, hi := timeSpan(o.ts, r.Lo[attrTime], r.Hi[attrTime])
	for a := range sums {
		sums[a] = o.cumSum[a][hi] - o.cumSum[a][lo]
	}
	return uint64(hi - lo), sums
}

// keyCount is the true number of records of one destination prefix
// inside a timeRect — what a top-k entry's bracket must contain.
func (o *oracle) keyCount(key uint64, r schema.Rect) uint64 {
	px := o.prefix[key]
	if px == nil {
		return 0
	}
	lo, hi := timeSpan(px.ts, r.Lo[attrTime], r.Hi[attrTime])
	return uint64(hi - lo)
}
