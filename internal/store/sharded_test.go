package store

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mind/internal/schema"
	"mind/internal/summary"
)

// smallTail builds an engine whose tail holds tailCap rows instead of
// tailRows, so differential tests cross many carries with modest record
// counts.
func smallTail(tailCap int) *Sharded {
	e := NewSharded(sch3(), Options{})
	e.tailCap = tailCap
	return e
}

func TestShardedEmpty(t *testing.T) {
	e := NewSharded(sch3(), Options{})
	if e.Len() != 0 {
		t.Fatalf("Len = %d", e.Len())
	}
	if got := e.Query(fullRect()); len(got) != 0 {
		t.Fatalf("empty engine returned %d records", len(got))
	}
	if e.StaticFrac() != 1 {
		t.Fatalf("empty StaticFrac = %v", e.StaticFrac())
	}
}

func TestShardedOptionsDefaults(t *testing.T) {
	if e := NewSharded(sch3(), Options{}); e.tailCap != tailRows || e.Rollup() != nil {
		t.Fatalf("engine defaults: tail %d, rollup %v", e.tailCap, e.Rollup())
	}
}

// TestShardedDifferentialFuzz runs random insert streams — uniform,
// duplicate-heavy, and monotone orders — against the Scan oracle,
// interleaving Query/Count/All checks so carries are crossed mid-stream,
// not just at the end.
func TestShardedDifferentialFuzz(t *testing.T) {
	gens := map[string]func(r *rand.Rand, i int) schema.Record{
		"uniform": func(r *rand.Rand, i int) schema.Record { return randRec(r) },
		"dupheavy": func(r *rand.Rand, i int) schema.Record {
			// 16 hot points carry most of the stream (replayed ingest
			// frames, hot flow keys).
			if r.Intn(4) > 0 {
				k := uint64(r.Intn(16))
				return schema.Record{k * 100, k * 100, k * 100, uint64(i)}
			}
			return randRec(r)
		},
		"monotone": func(r *rand.Rand, i int) schema.Record {
			v := uint64(i % 9999)
			return schema.Record{v, v, v, uint64(i)}
		},
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(len(name))*1000 + 9))
			e := smallTail(16)
			sc := NewScan(sch3())
			const total = 4000
			for i := 0; i < total; i++ {
				rec := gen(r, i)
				e.Insert(rec)
				sc.Insert(rec)
				// Check at a non-power-of-two cadence so checks land on
				// both sides of carries.
				if i%37 == 0 {
					q := randRect(r)
					a, b := e.Query(q), sc.Query(q)
					if !sameRecs(a, b) {
						t.Fatalf("i=%d query %v: sharded %d recs, scan %d", i, q, len(a), len(b))
					}
					if e.Count(q) != len(b) {
						t.Fatalf("i=%d: Count = %d, want %d", i, e.Count(q), len(b))
					}
					if e.Len() != sc.Len() {
						t.Fatalf("i=%d: Len = %d, want %d", i, e.Len(), sc.Len())
					}
				}
			}
			// All must stream every record exactly once.
			var streamed []schema.Record
			e.All(func(rec schema.Record) bool {
				streamed = append(streamed, rec)
				return true
			})
			var want []schema.Record
			sc.All(func(rec schema.Record) bool {
				want = append(want, rec)
				return true
			})
			if !sameRecs(streamed, want) {
				t.Fatalf("All mismatch: %d streamed, %d want", len(streamed), len(want))
			}
			// Compact must not change query results.
			e.Compact()
			if e.StaticFrac() != 1 {
				t.Fatalf("post-Compact StaticFrac = %v", e.StaticFrac())
			}
			for q := 0; q < 50; q++ {
				rect := randRect(r)
				if !sameRecs(e.Query(rect), sc.Query(rect)) {
					t.Fatalf("post-Compact mismatch for %v", rect)
				}
			}
		})
	}
}

// TestShardedConcurrentInsertQuery is TestKDConcurrentInsertQuery on a
// primary's engine under -race: concurrent writers drive the tail and
// the rollup through carry after carry while readers query, count,
// stream and resolve aggregates, then a differential sweep against the
// oracle proves nothing was lost or duplicated in either.
func TestShardedConcurrentInsertQuery(t *testing.T) {
	const (
		writers       = 4
		readers       = 4
		recsPerWriter = 2000
	)
	e := NewSharded(sch3(), Options{Rollup: &summary.Options{Depth: 6, K: 16, DeltaMax: 64}})
	e.tailCap = 16 // carries constantly
	recs := make([][]schema.Record, writers)
	for w := range recs {
		r := rand.New(rand.NewSource(int64(300 + w)))
		for i := 0; i < recsPerWriter; i++ {
			recs[w] = append(recs[w], randRec(r))
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := randRect(r)
				got := e.Query(q)
				if n := e.Count(q); n < 0 {
					t.Errorf("negative count %d", n)
				}
				for _, rec := range got {
					if !q.ContainsRecord(sch3(), rec) {
						t.Errorf("query returned record outside rect")
					}
				}
				e.All(func(schema.Record) bool { return true })
				_ = e.StaticFrac()
				_ = resolveRollup(e, q, 16)
			}
		}(int64(400 + g))
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for _, rec := range recs[w] {
				e.Insert(rec)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	if e.Len() != writers*recsPerWriter {
		t.Fatalf("Len = %d, want %d", e.Len(), writers*recsPerWriter)
	}
	sc := NewScan(sch3())
	for _, batch := range recs {
		for _, rec := range batch {
			sc.Insert(rec)
		}
	}
	if n := e.Rollup().Len(); n != e.Len() {
		t.Fatalf("rollup holds %d records, engine %d", n, e.Len())
	}
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 50; i++ {
		q := randRect(r)
		a, b := e.Query(q), sc.Query(q)
		if !sameRecs(a, b) {
			t.Fatalf("post-concurrency mismatch: sharded %d recs, scan %d", len(a), len(b))
		}
		checkRollupAgg(t, "post-concurrency", resolveRollup(e, q, 16), q, sc.recs)
	}
}

// TestKDLenNeverLeadsVisible pins the Insert publish order: a tail row
// is written before the length that publishes it, and a carry publishes
// its level and fresh tail in one snapshot, so a reader that observes
// Len() == n can always count at least n records afterwards.
func TestKDLenNeverLeadsVisible(t *testing.T) {
	kd := contractStore()
	full := fullRect()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l := kd.Len()
				if c := kd.Count(full); c < l {
					t.Errorf("Count %d < previously observed Len %d", c, l)
					return
				}
			}
		}()
	}
	r := rand.New(rand.NewSource(44))
	for i := 0; i < 20000; i++ {
		kd.Insert(randRec(r))
	}
	close(stop)
	wg.Wait()
}

// TestLadderShape pins the logarithmic method after every insert: level
// lengths strictly decrease, levels + tail account for every record,
// the level count and the rows ever carried stay within the binary
// counter's bounds, Compact leaves one level and an empty tail, and All
// streams the stored multiset levels first, then the tail in insertion
// order.
func TestLadderShape(t *testing.T) {
	for _, tailCap := range []int{tailRows, 8} {
		e := smallTail(tailCap)
		r := rand.New(rand.NewSource(93))
		var recs []schema.Record
		check := func(tag string) {
			t.Helper()
			n := len(recs)
			s := e.Shape()
			inLevels := 0
			for k, l := range s.Levels {
				if k > 0 && l >= s.Levels[k-1] {
					t.Fatalf("tail %d %s n=%d: levels %v do not strictly decrease", tailCap, tag, n, s.Levels)
				}
				inLevels += l
			}
			if inLevels+s.TailRecords != n || e.Len() != n {
				t.Fatalf("tail %d %s n=%d: levels %v + tail %d, Len %d", tailCap, tag, n, s.Levels, s.TailRecords, e.Len())
			}
			bound := 1 // ceil(log2(n/tail)) + 1
			for m := tailCap; m < n; m *= 2 {
				bound++
			}
			if len(s.Levels) > bound {
				t.Fatalf("tail %d %s n=%d: %d levels %v, bound %d", tailCap, tag, n, len(s.Levels), s.Levels, bound)
			}
			if s.CarriedRows > uint64(n*bound) {
				t.Fatalf("tail %d %s n=%d: %d rows carried in %d carries, bound %d", tailCap, tag, n, s.CarriedRows, s.Carries, n*bound)
			}
		}
		for i := 0; i < 10000; i++ {
			recs = append(recs, randRec(r))
			e.Insert(recs[i])
			check("insert")
		}
		if s := e.Shape(); s.Carries != uint64(len(recs)/tailCap) {
			t.Fatalf("tail %d: %d carries over %d inserts", tailCap, s.Carries, len(recs))
		}
		var streamed []schema.Record
		e.All(func(rec schema.Record) bool {
			streamed = append(streamed, rec.Clone())
			return true
		})
		s := e.Shape()
		for i, rec := range recs[len(recs)-s.TailRecords:] { // the tail streams last, in insertion order
			if got := streamed[len(streamed)-s.TailRecords+i]; !slices.Equal(got, rec) {
				t.Fatalf("tail %d: All tail position %d = %v, inserted %v", tailCap, i, got, rec)
			}
		}
		lo := 0
		for k, l := range s.Levels { // level k holds the oldest not yet streamed records, in partition order
			if !sameRecs(streamed[lo:lo+l], append([]schema.Record(nil), recs[lo:lo+l]...)) {
				t.Fatalf("tail %d: level %d of %v does not hold records [%d, %d)", tailCap, k, s.Levels, lo, lo+l)
			}
			lo += l
		}
		e.Compact()
		check("compact")
		compacted := e.Shape()
		if len(compacted.Levels) != 1 || compacted.Levels[0] != len(recs) || compacted.TailRecords != 0 || compacted.Carries != s.Carries+1 {
			t.Fatalf("tail %d: Compact left %+v after %+v", tailCap, compacted, s)
		}
		e.Compact() // nothing to carry: no new arena
		if again := e.Shape(); again.Carries != compacted.Carries {
			t.Fatalf("tail %d: an idle Compact carried (%d → %d)", tailCap, compacted.Carries, again.Carries)
		}
	}
}

// TestAppendLadderShape: an appending ladder (Options.Append) never
// carries — no carry, no row written twice — and every level is one
// sealed tail exactly, unindexed (a whole-scan level: no cuts), holding
// the records inserted in its turn; All streams in insertion order, and
// Compact still merges everything into one indexed level.
func TestAppendLadderShape(t *testing.T) {
	for _, tailCap := range []int{tailRows, 8} {
		e := NewSharded(sch3(), Options{Append: true})
		e.tailCap = tailCap
		r := rand.New(rand.NewSource(94))
		var recs []schema.Record
		for i := 0; i < 3000; i++ {
			recs = append(recs, randRec(r))
			e.Insert(recs[i])
		}
		s := e.Shape()
		if s.Carries != 0 || s.CarriedRows != 0 {
			t.Fatalf("tail %d: an appending ladder carried: %+v", tailCap, s)
		}
		if len(s.Levels) != len(recs)/tailCap || s.TailRecords != len(recs)%tailCap || e.Len() != len(recs) {
			t.Fatalf("tail %d: %d levels + %d in the tail over %d inserts", tailCap, len(s.Levels), s.TailRecords, len(recs))
		}
		for k, l := range e.snap.Load().levels {
			if l.Len() != tailCap || l.cuts != nil {
				t.Fatalf("tail %d: level %d holds %d rows (cuts %v), want one sealed tail of %d", tailCap, k, l.Len(), l.cuts != nil, tailCap)
			}
		}
		i := 0
		e.All(func(rec schema.Record) bool {
			if !slices.Equal(rec, recs[i]) {
				t.Fatalf("tail %d: All position %d = %v, inserted %v", tailCap, i, rec, recs[i])
			}
			i++
			return true
		})
		e.Compact()
		c := e.Shape()
		if len(c.Levels) != 1 || c.Levels[0] != len(recs) || c.TailRecords != 0 || c.Carries != 1 || c.CarriedRows != uint64(len(recs)) {
			t.Fatalf("tail %d: Compact left %+v", tailCap, c)
		}
		if l := e.snap.Load().levels[0]; l.cuts == nil {
			t.Fatalf("tail %d: the compacted level is not indexed", tailCap)
		}
		if got := e.Query(fullRect()); !sameRecs(got, append([]schema.Record(nil), recs...)) {
			t.Fatalf("tail %d: compacted ladder holds %d records, want %d", tailCap, len(got), len(recs))
		}
	}
}
