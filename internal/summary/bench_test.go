package summary

import (
	"testing"

	"mind/internal/schema"
)

// BenchmarkRollupFold measures the rollup's write side: 65,536 Index-2
// records of one day over 4,096 destination prefixes through New and
// Insert, folding every DeltaMax records. Two arrival orders:
//
//   - time_ordered: timestamps rise with the stream, as a live feed
//     delivers them, so a fold touches a few adjacent leaf cells and the
//     inner cells above them;
//   - shuffled: the same records in a random order, so a fold touches
//     most of the tree's cells with a handful of records each.
func BenchmarkRollupFold(b *testing.B) {
	const n = 1 << 16
	sch := schema.Index2(86400)
	rng := uint64(7)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	recs := make([]schema.Record, n)
	for i := range recs {
		prefix := (next() % 4096 * 0x9E3779B1) & 0xffffff00
		recs[i] = schema.Record{prefix, uint64(i) * 86400 / n, next() % (1 << 20), next() % (1 << 32), next() % 64}
	}
	shuffled := append([]schema.Record(nil), recs...)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := next() % uint64(i+1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	for _, order := range []struct {
		name string
		recs []schema.Record
	}{{"time_ordered", recs}, {"shuffled", shuffled}} {
		b.Run(order.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := New(sch, Options{})
				for _, rec := range order.recs {
					s.Insert(rec)
				}
				if s.Len() != n {
					b.Fatalf("Len = %d, want %d", s.Len(), n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
		})
	}
}
