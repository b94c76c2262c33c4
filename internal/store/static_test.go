package store

import (
	"math/rand"
	"testing"

	"mind/internal/schema"
)

func fullRect() schema.Rect {
	return schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{9999, 9999, 9999}}
}

func TestStaticEmpty(t *testing.T) {
	s := NewStatic(sch3(), nil)
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Query(fullRect()); len(got) != 0 {
		t.Fatalf("empty static returned %d records", len(got))
	}
	if s.Count(fullRect()) != 0 {
		t.Fatal("empty static Count != 0")
	}
	s.All(func(schema.Record) bool {
		t.Fatal("empty static yielded a record")
		return false
	})
}

func TestStaticSingle(t *testing.T) {
	s := NewStatic(sch3(), []schema.Record{{10, 20, 30, 7}})
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	q := schema.Rect{Lo: []uint64{10, 20, 30}, Hi: []uint64{10, 20, 30}}
	if got := s.Query(q); len(got) != 1 || got[0][3] != 7 {
		t.Fatalf("point query = %v", got)
	}
	q2 := schema.Rect{Lo: []uint64{11, 0, 0}, Hi: []uint64{9999, 9999, 9999}}
	if got := s.Query(q2); len(got) != 0 {
		t.Fatalf("miss query = %v", got)
	}
}

func TestStaticMatchesScan(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 9, 63, 64, 65, 1000, 4096} {
		r := rand.New(rand.NewSource(int64(500 + n)))
		recs := make([]schema.Record, n)
		sc := NewScan(sch3())
		for i := range recs {
			recs[i] = randRec(r)
			sc.Insert(recs[i])
		}
		s := NewStatic(sch3(), recs) // takes ownership; sc holds its own copies
		if s.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, s.Len())
		}
		for q := 0; q < 40; q++ {
			rect := randRect(r)
			a, b := s.Query(rect), sc.Query(rect)
			if !sameRecs(a, b) {
				t.Fatalf("n=%d query %v: static %d recs, scan %d", n, rect, len(a), len(b))
			}
			if s.Count(rect) != len(b) {
				t.Fatalf("n=%d: Count = %d, want %d", n, s.Count(rect), len(b))
			}
		}
	}
}

func TestStaticDuplicatePoints(t *testing.T) {
	// Equal coordinates may land on either side of a median split; both
	// prunes must admit equality or duplicates vanish from results.
	recs := make([]schema.Record, 100)
	for i := range recs {
		recs[i] = schema.Record{42, 42, 42, uint64(i)}
	}
	s := NewStatic(sch3(), recs)
	q := schema.Rect{Lo: []uint64{42, 42, 42}, Hi: []uint64{42, 42, 42}}
	if got := s.Query(q); len(got) != 100 {
		t.Fatalf("duplicate point query returned %d of 100", len(got))
	}
	if s.Count(q) != 100 {
		t.Fatalf("Count = %d", s.Count(q))
	}
}

func TestStaticClampedRecords(t *testing.T) {
	s := NewStatic(sch3(), []schema.Record{{50000, 1, 1, 0}}) // x clamps to 9999
	q := schema.Rect{Lo: []uint64{9999, 0, 0}, Hi: []uint64{9999, 9999, 9999}}
	if len(s.Query(q)) != 1 {
		t.Error("clamped record not found in topmost region")
	}
}

// TestStaticVEBLayout checks structural invariants of the van Emde Boas
// placement: the root occupies slot 0, every slot is used exactly once,
// child links are in range and acyclic, and the k-d ordering invariant
// holds on every edge (left subtree <= node on the split dim, right
// subtree >= node).
func TestStaticVEBLayout(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for _, n := range []int{1, 2, 5, 31, 32, 33, 1000} {
		recs := make([]schema.Record, n)
		for i := range recs {
			recs[i] = randRec(r)
			recs[i][i%3] += uint64(i%4) * 5000 // some coordinates above the bound
		}
		s := NewStatic(sch3(), recs)
		if s.Len() != n || len(s.kids) != 2*n || len(s.rows) != n*s.arity {
			t.Fatalf("n=%d: array sizes Len=%d kids=%d rows=%d", n, s.Len(), len(s.kids), len(s.rows))
		}
		// The k-d invariant holds on CLAMPED coordinates; rows are raw.
		coord := func(node int32, dim int) uint64 {
			return min(s.rows[int(node)*s.arity+dim], s.bounds[dim])
		}
		seen := make([]bool, n)
		depth := 0
		var walk func(node int32, dim, d int)
		walk = func(node int32, dim, d int) {
			if node < 0 {
				return
			}
			if node >= int32(n) {
				t.Fatalf("n=%d: child slot %d out of range", n, node)
			}
			if seen[node] {
				t.Fatalf("n=%d: slot %d reached twice (cycle or shared child)", n, node)
			}
			seen[node] = true
			if d > depth {
				depth = d
			}
			v := coord(node, dim)
			nd := (dim + 1) % s.dims
			if l := s.kids[2*node]; l >= 0 {
				if lv := coord(l, dim); lv > v {
					t.Fatalf("n=%d: left child coord %d > parent %d on dim %d", n, lv, v, dim)
				}
				walk(l, nd, d+1)
			}
			if rt := s.kids[2*node+1]; rt >= 0 {
				if rv := coord(rt, dim); rv < v {
					t.Fatalf("n=%d: right child coord %d < parent %d on dim %d", n, rv, v, dim)
				}
				walk(rt, nd, d+1)
			}
		}
		walk(0, 0, 1)
		for i, ok := range seen {
			if !ok {
				t.Fatalf("n=%d: slot %d unreachable from root", n, i)
			}
		}
		// Median builds are perfectly balanced; the fixed traversal stack
		// depends on this bound.
		limit := 0
		for m := n; m > 0; m >>= 1 {
			limit++
		}
		if depth > limit {
			t.Fatalf("n=%d: height %d exceeds floor(log2 n)+1 = %d", n, depth, limit)
		}
		if depth+1 > staticStackCap {
			t.Fatalf("n=%d: height %d would overflow the traversal stack", n, depth)
		}
	}
}

func TestStaticAllEarlyStop(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	recs := make([]schema.Record, 100)
	for i := range recs {
		recs[i] = randRec(r)
	}
	s := NewStatic(sch3(), recs)
	n := 0
	s.All(func(schema.Record) bool { n++; return true })
	if n != 100 {
		t.Fatalf("All yielded %d", n)
	}
	n = 0
	s.All(func(schema.Record) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early stop yielded %d", n)
	}
}

func BenchmarkStaticQuery(b *testing.B) {
	r := rand.New(rand.NewSource(37))
	recs := make([]schema.Record, 100000)
	for i := range recs {
		recs[i] = randRec(r)
	}
	s := NewStatic(sch3(), recs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Query(randRect(r))
	}
}

func BenchmarkStaticBulkLoad(b *testing.B) {
	r := rand.New(rand.NewSource(39))
	src := make([]schema.Record, 100000)
	for i := range src {
		src[i] = randRec(r)
	}
	recs := make([]schema.Record, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(recs, src)
		_ = NewStatic(sch3(), recs)
	}
}
