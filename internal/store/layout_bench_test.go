package store

import (
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
// each layout on identical data: the bare Static arena and the Sharded
// engine at 1 and 4 shards. It is the measured basis for the engine's
// constants — sharded1 matches static, and sharded4 shows the per-shard
// traversal cost hash routing imposes on every read (why defaultShards
// is 1).
func BenchmarkStoreLayout(b *testing.B) {
	r := rand.New(rand.NewSource(37))
	recs := make([]schema.Record, 100000)
	for i := range recs {
		recs[i] = randRec(r)
	}
	st := NewStatic(sch3(), append([]schema.Record(nil), recs...))
	sh1 := NewSharded(sch3(), Options{Shards: 1})
	sh4 := NewSharded(sch3(), Options{Shards: 4})
	for _, rec := range recs {
		sh1.Insert(rec)
		sh4.Insert(rec)
	}
	sh1.Compact()
	sh4.Compact()
	rects := benchRects(r)
	b.Run("static", func(b *testing.B) {
		var out []schema.Record
		for i := 0; i < b.N; i++ {
			out = st.QueryAppend(rects[i%256], out[:0])
		}
	})
	b.Run("sharded1", func(b *testing.B) {
		var out []schema.Record
		for i := 0; i < b.N; i++ {
			out = sh1.QueryAppend(rects[i%256], out[:0])
		}
	})
	b.Run("sharded4", func(b *testing.B) {
		var out []schema.Record
		for i := 0; i < b.N; i++ {
			out = sh4.QueryAppend(rects[i%256], out[:0])
		}
	})
}

// BenchmarkStoreSlab is the read a node's aggregate boundary fold and
// time-window queries make: one shard of 37,500 Index-2 records inserted
// in time order over one day and left as the live ladder inserts build
// (no Compact), queried with time-only windows — every destination and
// every octet count. The k-d descent cuts dest, time and octets in turn,
// so such a slab descends into many leaves that straddle its edges and
// selects a fraction of their rows; matches/op is the answer size.
func BenchmarkStoreSlab(b *testing.B) {
	sch := schema.Index2(86400)
	bounds := sch.Bounds()
	e := NewSharded(sch, Options{Shards: 1})
	r := rand.New(rand.NewSource(41))
	const n = 37500
	for i := 0; i < n; i++ {
		prefix := uint64(r.Intn(4096)) * 0x9E3779B1 & 0xffffff00
		e.Insert(schema.Record{prefix, uint64(i) * 86400 / n, uint64(r.Intn(1 << 20)), r.Uint64() >> 32, uint64(r.Intn(64))})
	}
	for _, w := range []struct {
		name  string
		width uint64
	}{{"10m", 600}, {"1.5h", 5400}} {
		b.Run(w.name, func(b *testing.B) {
			matches := 0
			for i := 0; i < b.N; i++ {
				lo := uint64(r.Intn(86400 - int(w.width)))
				matches += e.Count(schema.Rect{Lo: []uint64{0, lo, 0}, Hi: []uint64{bounds[0], lo + w.width, bounds[2]}})
			}
			b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
		})
	}
}
