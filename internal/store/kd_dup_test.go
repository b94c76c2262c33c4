package store

import (
	"math/rand"
	"testing"
)

func TestKDDuplicateHeavy(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	kd, sc := contractStore(), NewScan(sch3())
	// Hot-pair-like workload: many records sharing identical or
	// near-identical indexed coordinates, timestamps monotone.
	for i := 0; i < 3000; i++ {
		var rec []uint64
		switch i % 3 {
		case 0:
			rec = []uint64{5000, uint64(i / 10), 33, uint64(i)}
		case 1:
			rec = []uint64{5000, uint64(i / 10), uint64(20 + i%40), uint64(i)}
		default:
			rec = []uint64{r.Uint64() % 10000, uint64(i / 10), r.Uint64() % 10000, uint64(i)}
		}
		kd.Insert(rec)
		sc.Insert(rec)
	}
	if kd.Len() != sc.Len() {
		t.Fatalf("len %d vs %d", kd.Len(), sc.Len())
	}
	full := sch3().FullRect()
	a, b := kd.Query(full), sc.Query(full)
	if len(a) != len(b) {
		t.Fatalf("full query %d vs %d records", len(a), len(b))
	}
	for i := 0; i < 200; i++ {
		q := randRect(r)
		x, y := kd.Query(q), sc.Query(q)
		if !sameRecs(x, y) {
			t.Fatalf("query %v: kd %d scan %d", q, len(x), len(y))
		}
	}
}
