package store

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"mind/internal/schema"
)

func benchRects(r *rand.Rand) []schema.Rect {
	rects := make([]schema.Rect, 256)
	for i := range rects {
		rc := schema.Rect{Lo: make([]uint64, 3), Hi: make([]uint64, 3)}
		for d := 0; d < 3; d++ {
			lo := r.Uint64() % 9900
			rc.Lo[d], rc.Hi[d] = lo, lo+100
		}
		rects[i] = rc
	}
	return rects
}

// BenchmarkStoreLayout runs the same selective range queries against
// the compacted ladder (one level, no tail) and the ladder as its
// inserts left it (several levels and a tail) on identical data: the
// ladder's extra levels and tail scan cost a read little.
func BenchmarkStoreLayout(b *testing.B) {
	r := rand.New(rand.NewSource(37))
	recs := make([]schema.Record, 100000)
	for i := range recs {
		recs[i] = randRec(r)
	}
	live := NewSharded(sch3(), Options{})
	for _, rec := range recs {
		live.Insert(rec)
	}
	compacted := oneLevel(sch3(), recs)
	rects := benchRects(r)
	for _, eng := range []struct {
		name string
		e    *Sharded
	}{{"compacted", compacted}, {"live", live}} {
		b.Run(eng.name, func(b *testing.B) {
			var out []schema.Record
			for i := 0; i < b.N; i++ {
				out = eng.e.QueryAppend(rects[i%256], out[:0])
			}
		})
	}
}

// slabLadder is the live ladder BenchmarkStoreSlab and
// TestTimeWindowOverscan read: a ladder of 37,500 Index-2 records
// inserted in time order over one day and left as the inserts build it
// (no Compact) — 4 096 /24 destination prefixes, octets uniform below
// 1 MB. prefix draws one of those prefixes from r.
func slabLadder() (e *Sharded, bounds []uint64, prefix func(r *rand.Rand) uint64) {
	return index2Ladder(Options{}, 37500)
}

// index2Ladder is slabLadder's stream at n records into a ladder built
// with opts.
func index2Ladder(opts Options, n int) (e *Sharded, bounds []uint64, prefix func(r *rand.Rand) uint64) {
	sch := schema.Index2(86400)
	e = NewSharded(sch, opts)
	prefix = func(r *rand.Rand) uint64 { return uint64(r.Intn(4096)) * 0x9E3779B1 & 0xffffff00 }
	r := rand.New(rand.NewSource(41))
	for i := 0; i < n; i++ {
		e.Insert(schema.Record{prefix(r), uint64(i) * 86400 / uint64(n), uint64(r.Intn(1 << 20)), r.Uint64() >> 32, uint64(r.Intn(64))})
	}
	return e, sch.Bounds(), prefix
}

// zipfLadder is slabLadder's day of 37,500 Index-2 records in time
// order with benchmark-shaped values: destination prefixes drawn
// Zipf(1.1) over the same 4 096 /24s, octets log-uniform in [2⁶, 2²¹].
// popular draws a prefix from the same law, so a query aimed at it finds
// matches.
func zipfLadder() (e *Sharded, bounds []uint64, popular func(r *rand.Rand) uint64) {
	const n = 37500
	sch := schema.Index2(86400)
	e = NewSharded(sch, Options{})
	popular = func(r *rand.Rand) uint64 {
		return rand.NewZipf(r, 1.1, 1, 4095).Uint64() * 0x9E3779B1 & 0xffffff00
	}
	r := rand.New(rand.NewSource(45))
	z := rand.NewZipf(r, 1.1, 1, 4095)
	for i := 0; i < n; i++ {
		octets := uint64(math.Exp(math.Log(1<<6) + r.Float64()*(math.Log(1<<21)-math.Log(1<<6))))
		e.Insert(schema.Record{z.Uint64() * 0x9E3779B1 & 0xffffff00, uint64(i) * 86400 / n, octets, r.Uint64() >> 32, uint64(r.Intn(64))})
	}
	return e, sch.Bounds(), popular
}

// scannedRows counts what one read of rect reads past the boxes — the
// rows of every level's leaves and every block whose box boxTest does
// not rule out, the tail not included — and the matches the read finds.
// scanned ÷ matches is the levels' overscan before selection. Every
// leaf is tested, not only those the cuts reach: the cuts prune soundly
// and a box is its leaf's extent, so a leaf the cuts prune is one its
// box rules out.
func scannedRows(e *Sharded, rect schema.Rect) (scanned, matches int) {
	var buf windowBuf
	w, ok := openWindow(e.bounds, rect, &buf)
	if !ok {
		return 0, 0
	}
	snap := e.snap.Load()
	for _, l := range snap.levels {
		if l.isWide() {
			scanned += leavesKept(l, l.wide.box, w.con)
		} else {
			scanned += leavesKept(l, l.narrow.box, w.con)
		}
	}
	for i := range snap.blocks {
		if skip, _ := boxTest(w.con, snap.blocks[i].words, 3, 1); !skip {
			scanned += snap.blocks[i].n
		}
	}
	return scanned, e.Count(rect)
}

// leavesKept sums the rows of the leaves of l whose boxes (box, l's
// frames at its width) con does not rule out.
func leavesKept[W word](l *Static, box []W, con []bound) (rows int) {
	leaves := l.leaves()
	for j := 0; j < leaves; j++ {
		if skip, _ := boxTest(con, box[j*(l.arity+l.dims):], 1, l.arity); !skip {
			lo, hi := leafRange(l.n, bits.TrailingZeros(uint(leaves)), j)
			rows += hi - lo
		}
	}
	return rows
}

// handedRows counts what one read of rect hands over: the rows of every
// batch (the leaves and tail runs holding a match) and the matches among
// them. rows ÷ matches is the read's overscan.
func handedRows(e *Sharded, rect schema.Rect) (rows, matches int) {
	e.VisitBatches(rect, func(b *schema.Batch) {
		batch, sel := b.Rows()
		rows += len(batch) / e.arity
		matches += len(sel)
	})
	return rows, matches
}

// BenchmarkStoreSlab is the read a node's aggregate boundary fold and
// time-window queries make, on slabLadder: time-only windows (every
// destination and every octet count) of 10 minutes and 1.5 hours, and a
// narrow shape — one /24 × 4 minutes × octets >= 256 KB, the Index-2
// point-ish query. matches/op is the answer size and rows/op the rows of
// the batches handed over (the leaves that hold a match), so rows/op ÷
// matches/op is the overscan the cut schedule (schema.CutDim) leaves.
func BenchmarkStoreSlab(b *testing.B) {
	e, bounds, prefix := slabLadder()
	r := rand.New(rand.NewSource(43))
	slab := func(lo, width uint64) schema.Rect {
		return schema.Rect{Lo: []uint64{0, lo, 0}, Hi: []uint64{bounds[0], lo + width, bounds[2]}}
	}
	narrow := func(lo, width uint64) schema.Rect {
		p := prefix(r)
		return schema.Rect{Lo: []uint64{p, lo, 256 << 10}, Hi: []uint64{p + 255, lo + width, bounds[2]}}
	}
	for _, w := range []struct {
		name  string
		width uint64
		rect  func(lo, width uint64) schema.Rect
	}{{"10m", 600, slab}, {"1.5h", 5400, slab}, {"narrow", 240, narrow}} {
		b.Run(w.name, func(b *testing.B) {
			rows, matches := 0, 0
			for i := 0; i < b.N; i++ {
				rw, m := handedRows(e, w.rect(uint64(r.Intn(86400-int(w.width))), w.width))
				rows += rw
				matches += m
			}
			b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
			b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
		})
	}
}

// BenchmarkReplicaRead prices the read side of a replica store that
// appends instead of indexing (Options.Append): the same 50k Index-2
// records, in time order, read from an appending ladder — every sealed
// tail scanned whole — and from a merging one. narrow is a fail-over
// point query (one /24 × 4 minutes × octets >= 256 KB), wide a fail-over
// scan (every destination over 1.5 hours). Replicas are read only when
// their owner fails, so the appending ladder trades this read for every
// carry a replica would otherwise pay.
func BenchmarkReplicaRead(b *testing.B) {
	const n = 50000
	for _, w := range []struct {
		name  string
		width uint64
		wide  bool
	}{{"narrow", 240, false}, {"wide", 5400, true}} {
		b.Run(w.name, func(b *testing.B) {
			for _, eng := range []struct {
				name string
				opts Options
			}{{"append", Options{Append: true}}, {"merged", Options{}}} {
				e, bounds, prefix := index2Ladder(eng.opts, n)
				b.Run(eng.name, func(b *testing.B) {
					r := rand.New(rand.NewSource(44))
					matches := 0
					for i := 0; i < b.N; i++ {
						lo := uint64(r.Intn(86400 - int(w.width)))
						rect := schema.Rect{Lo: []uint64{0, lo, 0}, Hi: []uint64{bounds[0], lo + w.width, bounds[2]}}
						if !w.wide {
							p := prefix(r)
							rect = schema.Rect{Lo: []uint64{p, lo, 256 << 10}, Hi: []uint64{p + 255, lo + w.width, bounds[2]}}
						}
						matches += e.Count(rect)
					}
					b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
				})
			}
		})
	}
}
