package store

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mind/internal/schema"
)

func sch3() *schema.Schema {
	return &schema.Schema{
		Tag: "t",
		Attrs: []schema.Attr{
			{Name: "x", Max: 9999},
			{Name: "y", Max: 9999},
			{Name: "z", Max: 9999},
			{Name: "payload"},
		},
		IndexDims: 3,
	}
}

// schTime is sch3 with its indexed attribute p a time attribute: same
// bounds and arity, the time-first cut schedule (schema.CutDim).
func schTime(p int) *schema.Schema {
	sch := sch3()
	sch.Attrs[p].Kind = schema.KindTime
	return sch
}

func randRec(r *rand.Rand) schema.Record {
	return schema.Record{r.Uint64() % 10000, r.Uint64() % 10000, r.Uint64() % 10000, r.Uint64()}
}

func randRect(r *rand.Rand) schema.Rect {
	rc := schema.Rect{Lo: make([]uint64, 3), Hi: make([]uint64, 3)}
	for i := 0; i < 3; i++ {
		a, b := r.Uint64()%10000, r.Uint64()%10000
		if a > b {
			a, b = b, a
		}
		rc.Lo[i], rc.Hi[i] = a, b
	}
	return rc
}

func sortRecs(rs []schema.Record) {
	sort.Slice(rs, func(i, j int) bool {
		for k := range rs[i] {
			if rs[i][k] != rs[j][k] {
				return rs[i][k] < rs[j][k]
			}
		}
		return false
	})
}

func sameRecs(a, b []schema.Record) bool {
	if len(a) != len(b) {
		return false
	}
	sortRecs(a)
	sortRecs(b)
	for i := range a {
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// contractStore is the engine the Store-contract tests below run on: a
// ladder whose tail holds 16 rows, so a few dozen inserts already cross
// carries of several sizes. The tests' TestKD names are historical —
// they were written against the pointer k-d tree the ladder replaced.
func contractStore() *Sharded { return smallTail(16) }

func TestKDEmptyQuery(t *testing.T) {
	kd := contractStore()
	if kd.Len() != 0 {
		t.Fatal("new store not empty")
	}
	if got := kd.Query(schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{9999, 9999, 9999}}); len(got) != 0 {
		t.Fatalf("empty store returned %d records", len(got))
	}
}

func TestKDInsertQueryBasic(t *testing.T) {
	kd := contractStore()
	kd.Insert(schema.Record{10, 20, 30, 111})
	kd.Insert(schema.Record{50, 60, 70, 222})
	kd.Insert(schema.Record{10, 20, 30, 333}) // duplicate point, distinct payload
	if kd.Len() != 3 {
		t.Fatalf("Len = %d", kd.Len())
	}
	got := kd.Query(schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{40, 40, 40}})
	if len(got) != 2 {
		t.Fatalf("query returned %d records, want 2 (duplicates must both appear)", len(got))
	}
	got = kd.Query(schema.Rect{Lo: []uint64{10, 20, 30}, Hi: []uint64{10, 20, 30}})
	if len(got) != 2 {
		t.Fatalf("point query returned %d", len(got))
	}
	got = kd.Query(schema.Rect{Lo: []uint64{11, 0, 0}, Hi: []uint64{49, 9999, 9999}})
	if len(got) != 0 {
		t.Fatalf("gap query returned %d", len(got))
	}
}

func TestKDBoundaryInclusive(t *testing.T) {
	kd := contractStore()
	kd.Insert(schema.Record{100, 200, 300, 0})
	q := schema.Rect{Lo: []uint64{100, 200, 300}, Hi: []uint64{100, 200, 300}}
	if len(kd.Query(q)) != 1 {
		t.Error("inclusive boundary miss")
	}
	q2 := schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{100, 200, 299}}
	if len(kd.Query(q2)) != 0 {
		t.Error("exclusive boundary hit")
	}
}

func TestKDClampedRecords(t *testing.T) {
	// Records above the attribute bound land in the topmost coordinate.
	kd := contractStore()
	kd.Insert(schema.Record{50000, 1, 1, 0}) // x clamps to 9999
	q := schema.Rect{Lo: []uint64{9999, 0, 0}, Hi: []uint64{9999, 9999, 9999}}
	if len(kd.Query(q)) != 1 {
		t.Error("clamped record not found in topmost region")
	}
}

func TestKDMatchesScanRandom(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	kd, sc := contractStore(), NewScan(sch3())
	for i := 0; i < 3000; i++ {
		rec := randRec(r)
		kd.Insert(rec)
		sc.Insert(rec)
	}
	for i := 0; i < 200; i++ {
		q := randRect(r)
		a, b := kd.Query(q), sc.Query(q)
		if !sameRecs(a, b) {
			t.Fatalf("query %v: kd %d recs, scan %d recs", q, len(a), len(b))
		}
		if kd.Count(q) != len(b) {
			t.Fatalf("Count = %d, want %d", kd.Count(q), len(b))
		}
		if sc.Count(q) != len(b) {
			t.Fatalf("Scan.Count = %d, want %d", sc.Count(q), len(b))
		}
	}
}

func TestKDRebalanceMonotoneInsert(t *testing.T) {
	// Monotone insertion order (sorted timestamps) must not degrade the
	// ladder to a list of tail-sized levels.
	kd := contractStore()
	n := 20000
	for i := 0; i < n; i++ {
		kd.Insert(schema.Record{uint64(i % 9999), uint64(i % 9999), uint64(i % 9999), uint64(i)})
	}
	if levels := kd.Shape().Levels; len(levels) > 12 { // ceil(log2(20000/16)) + 1
		t.Errorf("%d levels %v after monotone insert of %d records", len(levels), levels, n)
	}
	// Queries must still be correct after rebuilds.
	sc := NewScan(sch3())
	for i := 0; i < n; i++ {
		sc.Insert(schema.Record{uint64(i % 9999), uint64(i % 9999), uint64(i % 9999), uint64(i)})
	}
	r := rand.New(rand.NewSource(32))
	for i := 0; i < 50; i++ {
		q := randRect(r)
		if !sameRecs(kd.Query(q), sc.Query(q)) {
			t.Fatalf("post-rebuild query mismatch for %v", q)
		}
	}
}

func TestKDAllStreams(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	kd := contractStore()
	want := map[uint64]bool{}
	for i := 0; i < 500; i++ {
		rec := randRec(r)
		kd.Insert(rec)
		want[rec[3]] = true
	}
	got := 0
	kd.All(func(rec schema.Record) bool {
		if !want[rec[3]] {
			t.Fatal("All yielded unknown record")
		}
		got++
		return true
	})
	if got != 500 {
		t.Fatalf("All yielded %d records", got)
	}
	// Early stop.
	n := 0
	kd.All(func(rec schema.Record) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop yielded %d", n)
	}
}

func TestScanAll(t *testing.T) {
	sc := NewScan(sch3())
	sc.Insert(schema.Record{1, 2, 3, 4})
	sc.Insert(schema.Record{5, 6, 7, 8})
	n := 0
	sc.All(func(schema.Record) bool { n++; return true })
	if n != 2 {
		t.Fatal("scan All incomplete")
	}
	n = 0
	sc.All(func(schema.Record) bool { n++; return false })
	if n != 1 {
		t.Fatal("scan All ignored early stop")
	}
}

func TestVersioned(t *testing.T) {
	vs := NewVersionedOpts(sch3(), Options{})
	vs.Insert(1, schema.Record{10, 10, 10, 1})
	vs.Insert(2, schema.Record{10, 10, 10, 2})
	vs.Insert(2, schema.Record{90, 90, 90, 3})
	if vs.Len() != 3 {
		t.Fatalf("Len = %d", vs.Len())
	}
	if !vs.Has(1) || vs.Has(7) {
		t.Error("Has wrong")
	}
	if got := vs.Versions(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Versions = %v", got)
	}
	all := schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{9999, 9999, 9999}}
	if got := vs.Query([]uint32{1}, all); len(got) != 1 {
		t.Errorf("v1 query = %d recs", len(got))
	}
	if got := vs.Query([]uint32{1, 2, 9}, all); len(got) != 3 {
		t.Errorf("multi-version query = %d recs (missing versions must be skipped)", len(got))
	}
	if got := vs.QueryAll(all); len(got) != 3 {
		t.Errorf("QueryAll = %d recs", len(got))
	}
	vs.Drop(2)
	if vs.Len() != 1 || vs.Has(2) {
		t.Error("Drop failed")
	}
}

func TestQuickKDEqualsScan(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	f := func() bool {
		kd, sc := contractStore(), NewScan(sch3())
		n := r.Intn(300)
		for i := 0; i < n; i++ {
			rec := randRec(r)
			kd.Insert(rec)
			sc.Insert(rec)
		}
		for q := 0; q < 5; q++ {
			rect := randRect(r)
			a, b := kd.Query(rect), sc.Query(rect)
			if !sameRecs(a, b) {
				return false
			}
			// Count must agree with Query on both Store implementations.
			if kd.Count(rect) != len(a) || sc.Count(rect) != len(b) {
				return false
			}
		}
		return kd.Len() == sc.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkShardedInsert(b *testing.B) {
	r := rand.New(rand.NewSource(36))
	e := NewSharded(sch3(), Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Insert(randRec(r))
	}
}

func BenchmarkShardedQuery(b *testing.B) {
	r := rand.New(rand.NewSource(37))
	e := NewSharded(sch3(), Options{})
	for i := 0; i < 100000; i++ {
		e.Insert(randRec(r))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Query(randRect(r))
	}
}

func BenchmarkScanQuery(b *testing.B) {
	r := rand.New(rand.NewSource(38))
	sc := NewScan(sch3())
	for i := 0; i < 100000; i++ {
		sc.Insert(randRec(r))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sc.Query(randRect(r))
	}
}
