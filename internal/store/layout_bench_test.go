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
