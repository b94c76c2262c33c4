package store

import (
	"math/rand"
	"slices"
	"testing"

	"mind/internal/schema"
)

// wideRows decodes a level's leaves, in partition order, as 64-bit
// words, and wideCuts reads its cuts as 64-bit words, whatever width it
// keeps.
func wideRows(s *Static) []uint64 { return appendLevel[uint64](nil, s) }

func wideCuts(s *Static) []uint64 {
	if s.isWide() {
		return s.wide.cuts
	}
	cuts := make([]uint64, len(s.narrow.cuts))
	for i, c := range s.narrow.cuts {
		cuts[i] = uint64(c)
	}
	return cuts
}

// indexed reports whether a level has cuts.
func indexed(s *Static) bool { return s.wide.cuts != nil || s.narrow.cuts != nil }

// oneLevel builds a one-level ladder holding recs: every record
// inserted, then Compact. It is how a test reads a Static of its own
// records: through the ladder, as every reader does.
func oneLevel(sch *schema.Schema, recs []schema.Record) *Sharded {
	e := NewSharded(sch, Options{})
	for _, rec := range recs {
		e.Insert(rec)
	}
	e.Compact()
	return e
}

// levelOf returns a one-level ladder's level, or an empty one when it
// holds no record.
func levelOf(e *Sharded) *Static {
	snap := e.snap.Load()
	if len(snap.levels) == 0 {
		return &Static{geom: &e.geom}
	}
	if len(snap.levels) != 1 || len(snap.tail.published(e.arity)) != 0 {
		panic("levelOf: not a one-level ladder")
	}
	return snap.levels[0]
}

func fullRect() schema.Rect {
	return schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{9999, 9999, 9999}}
}

func TestStaticEmpty(t *testing.T) {
	s := oneLevel(sch3(), nil)
	if s.Len() != 0 || len(s.Shape().Levels) != 0 {
		t.Fatalf("Len = %d, levels %v", s.Len(), s.Shape().Levels)
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
	s := oneLevel(sch3(), []schema.Record{{10, 20, 30, 7}})
	if s.Len() != 1 || levelOf(s).Len() != 1 {
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
		s := oneLevel(sch3(), recs)
		if s.Len() != n || levelOf(s).Len() != n {
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
	s := oneLevel(sch3(), recs)
	q := schema.Rect{Lo: []uint64{42, 42, 42}, Hi: []uint64{42, 42, 42}}
	if got := s.Query(q); len(got) != 100 {
		t.Fatalf("duplicate point query returned %d of 100", len(got))
	}
	if s.Count(q) != 100 {
		t.Fatalf("Count = %d", s.Count(q))
	}
}

func TestStaticClampedRecords(t *testing.T) {
	s := oneLevel(sch3(), []schema.Record{{50000, 1, 1, 0}}) // x clamps to 9999
	q := schema.Rect{Lo: []uint64{9999, 0, 0}, Hi: []uint64{9999, 9999, 9999}}
	if len(s.Query(q)) != 1 {
		t.Error("clamped record not found in topmost region")
	}
}

// TestStaticPartitionLayout checks the structural invariants of the
// leaf-bucketed arena: rows are a permutation of the input, every
// internal node's cut separates its row range on CLAMPED coordinates
// (left <= cut <= right) of the dimension the schedule names for its
// depth, every leaf holds at most leafRows rows, cuts is exactly the
// implicit tree's size, and the deepest path fits the fixed traversal
// stack. The schedule is restated here from its definition: round robin
// without a time attribute (sch3), and with one the time dimension on
// depths 3j and 3j+1 and the others in schema order on 3j+2. Every case
// is built twice, with payloads that fit 32 bits (a narrow level) and
// with payloads that do not (a wide one): the width is the data's, and
// both widths hold the same rows in the same partition order.
func TestStaticPartitionLayout(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	gens := map[string]func(i int) []uint64{
		"above-bound": func(i int) []uint64 {
			rec := randRec(r)
			rec[i%3] += uint64(i%4) * 5000 // some coordinates above sch3's bound
			return rec[:3]
		},
		"dupheavy": func(i int) []uint64 {
			k := uint64(r.Intn(5))
			return []uint64{k * 3000, k * 3000, uint64(r.Intn(2)) * 20000}
		},
		"time-ordered": func(i int) []uint64 { // the live ladder's insert order
			return []uint64{r.Uint64() % 10000, uint64(i), r.Uint64() % 10000}
		},
	}
	schemas := map[string]struct {
		sch  *schema.Schema
		want func(depth int) int
	}{
		"sch3":   {sch3(), func(k int) int { return k % 3 }},
		"time@0": {schTime(0), timeFirst(0, 1, 2)},
		"time@2": {schTime(2), timeFirst(2, 0, 1)},
		"index2": {schema.Index2(86400), timeFirst(1, 0, 2)},
	}
	for sname, sc := range schemas {
		for gname, gen := range gens {
			for _, n := range []int{0, 1, 2, 31, 32, 33, 1000, 4097} {
				name := sname + "/" + gname
				arity := sc.sch.Arity()
				recs := make([]schema.Record, n)
				for i := range recs {
					recs[i] = make(schema.Record, arity)
					copy(recs[i], gen(i))
					recs[i][arity-1] = uint64(i)
				}
				narrow := levelOf(oneLevel(sc.sch, recs))
				for _, rec := range recs {
					rec[arity-1] |= 1 << 40
				}
				s := levelOf(oneLevel(sc.sch, recs))
				if n > 0 && (narrow.isWide() || !s.isWide()) {
					t.Fatalf("%s n=%d: 32-bit payloads built a wide level (%v) or 2⁴⁰ ones a narrow level (%v)", name, n, narrow.isWide(), !s.isWide())
				}
				if nr, wr := wideRows(narrow), wideRows(s); len(nr) != len(wr) || !slices.Equal(wideCuts(narrow), wideCuts(s)) {
					t.Fatalf("%s n=%d: narrow and wide levels differ in size or cuts", name, n)
				} else {
					for i := range nr {
						if i%arity != arity-1 && nr[i] != wr[i] || i%arity == arity-1 && nr[i]|1<<40 != wr[i] {
							t.Fatalf("%s n=%d: narrow and wide partition orders differ at word %d", name, n, i)
						}
					}
				}
				rows, cuts := wideRows(s), wideCuts(s)
				if s.Len() != n || len(rows) != n*s.arity {
					t.Fatalf("%s n=%d: Len=%d rows=%d", name, n, s.Len(), len(rows))
				}
				var stored []schema.Record
				s.each(func(rec schema.Record) bool { stored = append(stored, rec); return true })
				if !sameRecs(stored, recs) {
					t.Fatalf("%s n=%d: rows are not a permutation of the input", name, n)
				}
				want := 0
				if n > leafRows {
					for want = 1; (n+want-1)/want > leafRows; want *= 2 {
					}
				}
				if len(cuts) != want {
					t.Fatalf("%s n=%d: len(cuts) = %d, want %d", name, n, len(cuts), want)
				}
				coord := func(row, dim int) uint64 { return min(rows[row*s.arity+dim], s.bounds[dim]) }
				depth := 0
				var walk func(node, lo, hi, d int)
				walk = func(node, lo, hi, d int) {
					depth = max(depth, d)
					if hi-lo <= leafRows {
						return
					}
					dim := sc.want(d)
					cut, mid := cuts[node], lo+(hi-lo)/2
					for row := lo; row < hi; row++ {
						if v := coord(row, dim); (row < mid && v > cut) || (row >= mid && v < cut) {
							t.Fatalf("%s n=%d: node %d (depth %d) rows [%d,%d) cut %d on dim %d: row %d has %d on the wrong side",
								name, n, node, d, lo, hi, cut, dim, row, v)
						}
					}
					walk(2*node, lo, mid, d+1)
					walk(2*node+1, mid, hi, d+1)
				}
				walk(1, 0, n, 0)
				if depth+1 > staticStackCap {
					t.Fatalf("%s n=%d: depth %d would overflow the traversal stack", name, n, depth)
				}
			}
		}
	}
}

// timeFirst is the time-aware schedule written out for one schema: time
// on two depths of every three, the others in turn on the third.
func timeFirst(time int, others ...int) func(depth int) int {
	return func(k int) int {
		if k%3 < 2 {
			return time
		}
		return others[k/3%len(others)]
	}
}

// TestTimeWindowOverscan holds the cut schedule to what it is for: on
// the live ladder of BenchmarkStoreSlab, a 10-minute window over every
// destination and octet count hands over at most 4 rows per match (the
// batches are the leaves that hold one). Round robin hands over 12.8.
func TestTimeWindowOverscan(t *testing.T) {
	e, bounds, _ := slabLadder()
	r := rand.New(rand.NewSource(44))
	rows, matches := 0, 0
	for q := 0; q < 200; q++ {
		lo := uint64(r.Intn(86400 - 600))
		rw, m := handedRows(e, schema.Rect{Lo: []uint64{0, lo, 0}, Hi: []uint64{bounds[0], lo + 600, bounds[2]}})
		rows += rw
		matches += m
	}
	if matches == 0 || rows > 4*matches {
		t.Fatalf("10-minute windows handed %d rows for %d matches (%.2f×), want <= 4×", rows, matches, float64(rows)/float64(max(matches, 1)))
	}
	t.Logf("10-minute windows: %d rows handed for %d matches (%.2f×)", rows, matches, float64(rows)/float64(matches))
}

// TestNarrowOverscan holds the leaf boxes to what they are for: on
// zipfLadder, a live per-node ladder of benchmark-shaped values, the
// narrow query — one popular /24 × 30 minutes × octets ≥ 256 KB — reads
// at most 25 packed rows per match (the tail, scanned whole by every
// read, not counted): the rows of the leaves whose boxes the window does
// not rule out (scannedRows). The boxes read 21.3; a read that ignores
// them, pruning by the cuts alone, reads 32.4 (54.6 with the tail,
// DESIGN.md §4h "The cut schedule"), and fails.
func TestNarrowOverscan(t *testing.T) {
	e, bounds, popular := zipfLadder()
	r := rand.New(rand.NewSource(46))
	scanned, matches := 0, 0
	for q := 0; q < 2000; q++ {
		lo, p := uint64(r.Intn(86400-1800)), popular(r)
		s, m := scannedRows(e, schema.Rect{Lo: []uint64{p, lo, 256 << 10}, Hi: []uint64{p + 255, lo + 1800, bounds[2]}})
		scanned += s
		matches += m
	}
	t.Logf("narrow 30-minute queries: %d rows read for %d matches (%.2f×)", scanned, matches, float64(scanned)/float64(max(matches, 1)))
	if matches == 0 || scanned > 25*matches {
		t.Fatalf("narrow 30-minute queries read %d rows for %d matches (%.2f×), want <= 25×", scanned, matches, float64(scanned)/float64(max(matches, 1)))
	}
}

// TestLeafOffsetFar: a leaf whose offsets start far into a level's
// words — at word 2²⁶ and at the last word an offset can name — is read
// from the right bit: the bit position is computed in a full-width uint,
// not in offs' uint32. A level of 2³² words or more is never built.
func TestLeafOffsetFar(t *testing.T) {
	g := newGeom(sch3())
	for _, off := range []uint32{1 << 26, 1<<32 - 1} {
		a := arena[uint32]{box: make([]uint32, g.arity+g.dims), shape: make([]uint16, g.arity), offs: []uint32{off}}
		for c := range a.shape {
			a.shape[c] = uint16(7+c) << 8
		}
		start := 64 * uint(off)
		for c, col := range a.columns(&g, 0, leafRows, nil) {
			if col.Start != start {
				t.Fatalf("offs %d: column %d starts at bit %d, want %d", off, c, col.Start, start)
			}
			start += leafRows * uint(7+c)
		}
	}
	if got := leafOffset(1<<32 - 1); got != 1<<32-1 {
		t.Fatalf("leafOffset(2³²-1) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a leaf starting at word 2³² was given an offset")
		}
	}()
	leafOffset(1 << 32)
}

func TestStaticAllEarlyStop(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	recs := make([]schema.Record, 100)
	for i := range recs {
		recs[i] = randRec(r)
	}
	s := oneLevel(sch3(), recs)
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
	s := oneLevel(sch3(), recs)
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = oneLevel(sch3(), src)
	}
}
