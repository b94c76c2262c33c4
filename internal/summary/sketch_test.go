package summary

import (
	"maps"
	"math/rand"
	"testing"
)

// offerStream feeds a deterministic skewed stream: a few hot keys carry
// most of the weight (heavy hitters), the rest is uniform tail.
func offerStream(r *rand.Rand, s *Sketch, oracle map[uint64]uint64, n int) {
	for i := 0; i < n; i++ {
		var k uint64
		if r.Intn(3) > 0 {
			k = uint64(r.Intn(8)) // hot set
		} else {
			k = 100 + uint64(r.Intn(1000)) // tail
		}
		s.Offer(k)
		oracle[k]++
	}
}

// checkBounds asserts the sketch's self-describing guarantees against
// an exact histogram: monitored keys bracket the truth
// (Count-Err <= true <= Count), absent keys are bounded by Floor, and —
// the guaranteed-heavy-hitter containment — every key heavier than
// Floor is monitored.
func checkBounds(t *testing.T, s *Sketch, oracle map[uint64]uint64) {
	t.Helper()
	seen := make(map[uint64]bool)
	for _, e := range s.Top() {
		seen[e.Key] = true
		truth := oracle[e.Key]
		if truth > e.Count {
			t.Fatalf("key %d: true %d > estimate %d", e.Key, truth, e.Count)
		}
		if e.Count-e.Err > truth {
			t.Fatalf("key %d: lower bound %d > true %d", e.Key, e.Count-e.Err, truth)
		}
	}
	for k, truth := range oracle {
		if !seen[k] && truth > s.floor {
			t.Fatalf("key %d with true weight %d > floor %d not monitored", k, truth, s.floor)
		}
	}
}

func TestSketchExactBelowCapacity(t *testing.T) {
	s := NewSketch(16)
	for i := 0; i < 100; i++ {
		s.OfferN(uint64(i%10), uint64(i%3+1))
	}
	if !s.Exact() {
		t.Fatal("sketch with 10 distinct keys in 16 slots should be exact")
	}
	oracle := make(map[uint64]uint64)
	for i := 0; i < 100; i++ {
		oracle[uint64(i%10)] += uint64(i%3 + 1)
	}
	for _, e := range s.Top() {
		if e.Count != oracle[e.Key] || e.Err != 0 {
			t.Fatalf("exact sketch entry %+v, want count %d err 0", e, oracle[e.Key])
		}
	}
}

func TestSketchOracleBounds(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := NewSketch(1 + r.Intn(32))
		oracle := make(map[uint64]uint64)
		offerStream(r, s, oracle, 2000)
		checkBounds(t, s, oracle)
	}
}

// TestSketchErrBoundNK: for a pure offer stream (no merges) the
// space-saving guarantee holds — every entry's error and the absent-key
// floor are at most N/K.
func TestSketchErrBoundNK(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed * 77))
		k := 4 + r.Intn(29)
		s := NewSketch(k)
		oracle := make(map[uint64]uint64)
		offerStream(r, s, oracle, 3000)
		bound := s.N() / uint64(k)
		if s.Floor() > bound {
			t.Fatalf("K=%d N=%d: floor %d > N/K %d", k, s.N(), s.Floor(), bound)
		}
		for _, e := range s.Top() {
			if e.Err > bound {
				t.Fatalf("K=%d N=%d: entry %d err %d > N/K %d", k, s.N(), e.Key, e.Err, bound)
			}
		}
	}
}

func sameSketch(a, b *Sketch) bool {
	if a.N() != b.N() || a.Floor() != b.Floor() || a.Len() != b.Len() {
		return false
	}
	at, bt := a.Top(), b.Top()
	for i := range at {
		if at[i] != bt[i] {
			return false
		}
	}
	return true
}

func TestSketchMergeCommutative(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed * 131))
		k := 2 + r.Intn(16)
		a, b := NewSketch(k), NewSketch(k)
		oa, ob := make(map[uint64]uint64), make(map[uint64]uint64)
		offerStream(r, a, oa, 500)
		offerStream(r, b, ob, 500)
		ab, ba := a.Clone(), b.Clone()
		ab.Merge(b)
		ba.Merge(a)
		if !sameSketch(ab, ba) {
			t.Fatalf("seed %d K=%d: merge not commutative\nab=%+v floor=%d\nba=%+v floor=%d",
				seed, k, ab.Top(), ab.Floor(), ba.Top(), ba.Floor())
		}
	}
}

// TestSketchMergeAssociativeExact: when everything fits in capacity the
// merge is exactly associative (all counts stay true counts).
func TestSketchMergeAssociativeExact(t *testing.T) {
	mk := func(keys ...uint64) *Sketch {
		s := NewSketch(16)
		for _, k := range keys {
			s.OfferN(k, k+1)
		}
		return s
	}
	a, b, c := mk(1, 2, 3), mk(2, 3, 4), mk(5, 1)
	l := a.Clone()
	l.Merge(b)
	l.Merge(c)
	r := b.Clone()
	r.Merge(c)
	ar := a.Clone()
	ar.Merge(r)
	if !l.Exact() || !sameSketch(l, ar) {
		t.Fatalf("exact merges not associative: (a+b)+c=%+v a+(b+c)=%+v", l.Top(), ar.Top())
	}
}

// TestSketchMergeAssociativeBounds: with evictions the two association
// orders may differ in estimates but both must stay sound against the
// exact histogram of the union stream.
func TestSketchMergeAssociativeBounds(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed * 733))
		k := 2 + r.Intn(8)
		a, b, c := NewSketch(k), NewSketch(k), NewSketch(k)
		oracle := make(map[uint64]uint64)
		offerStream(r, a, oracle, 400)
		offerStream(r, b, oracle, 400)
		offerStream(r, c, oracle, 400)
		l := a.Clone()
		l.Merge(b)
		l.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		rr := a.Clone()
		rr.Merge(bc)
		checkBounds(t, l, oracle)
		checkBounds(t, rr, oracle)
		if l.N() != rr.N() {
			t.Fatalf("N differs across association orders: %d vs %d", l.N(), rr.N())
		}
	}
}

// TestSketchMergedPartialsErrBound: one merge level over pure partial
// sketches (the aggregate coordinator's shape) keeps every entry error
// within (N1+N2)/K.
func TestSketchMergedPartialsErrBound(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed * 997))
		k := 8 + r.Intn(25)
		a, b := NewSketch(k), NewSketch(k)
		oracle := make(map[uint64]uint64)
		offerStream(r, a, oracle, 1500)
		offerStream(r, b, oracle, 1500)
		m := a.Clone()
		m.Merge(b)
		bound := m.N() / uint64(k)
		for _, e := range m.Top() {
			if e.Err > bound {
				t.Fatalf("K=%d: merged entry %d err %d > N/K %d", k, e.Key, e.Err, bound)
			}
		}
		checkBounds(t, m, oracle)
	}
}

// mergePair is the pairwise merge written out: a key on both sides sums
// counts and errors, a key on one side absorbs the other side's floor,
// and the canonically sorted union is truncated to capacity, the
// truncated estimates raising the floor.
func mergePair(a, b *Sketch) *Sketch {
	in := func(s *Sketch, key uint64) (Entry, bool) {
		for _, e := range s.entries {
			if e.Key == key {
				return e, true
			}
		}
		return Entry{}, false
	}
	var merged []Entry
	for _, e := range a.entries {
		o, ok := in(b, e.Key)
		if !ok {
			o = Entry{Count: b.floor, Err: b.floor}
		}
		merged = append(merged, Entry{Key: e.Key, Count: e.Count + o.Count, Err: e.Err + o.Err})
	}
	for _, e := range b.entries {
		if _, ok := in(a, e.Key); !ok {
			merged = append(merged, Entry{Key: e.Key, Count: e.Count + a.floor, Err: e.Err + a.floor})
		}
	}
	sortEntries(merged)
	floor := a.floor + b.floor
	if len(merged) > a.k {
		for _, e := range merged[a.k:] {
			floor = max(floor, e.Count)
		}
		merged = merged[:a.k]
	}
	return FromParts(a.k, a.n+b.n, floor, merged)
}

// TestSketchMergeManySingleMatchesMerge: a batch of one part computes
// exactly the pairwise merge, so MergeMany is a strict generalization
// (and Merge, which is MergeMany of one part, is that merge).
func TestSketchMergeManySingleMatchesMerge(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed * 313))
		k := 2 + r.Intn(16)
		a, b := NewSketch(k), NewSketch(k)
		oracle := make(map[uint64]uint64)
		offerStream(r, a, oracle, 600)
		offerStream(r, b, oracle, 600)
		pair := mergePair(a, b)
		batch := a.Clone()
		batch.MergeMany([]*Sketch{b})
		if !sameSketch(pair, batch) {
			t.Fatalf("seed %d K=%d: MergeMany([b]) != Merge(b)\npair=%+v floor=%d\nbatch=%+v floor=%d",
				seed, k, pair.Top(), pair.Floor(), batch.Top(), batch.Floor())
		}
		checkBounds(t, batch, oracle)
	}
}

// TestSketchMergeManyBounds: the batch combine of several partials is
// sound against the union histogram, is a pure function of the multiset
// of parts (permutation-invariant), and — the point of combining before
// truncating — never ends with a looser floor than the sequential
// pairwise chain over the same parts.
func TestSketchMergeManyBounds(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed * 617))
		k := 2 + r.Intn(16)
		m := 2 + r.Intn(6)
		parts := make([]*Sketch, m)
		oracle := make(map[uint64]uint64)
		for i := range parts {
			parts[i] = NewSketch(k)
			offerStream(r, parts[i], oracle, 300)
		}
		batch := NewSketch(k)
		batch.MergeMany(parts)
		checkBounds(t, batch, oracle)

		rev := NewSketch(k)
		revParts := make([]*Sketch, m)
		for i := range parts {
			revParts[m-1-i] = parts[i]
		}
		rev.MergeMany(revParts)
		if !sameSketch(batch, rev) {
			t.Fatalf("seed %d: MergeMany not permutation-invariant", seed)
		}

		seq := NewSketch(k)
		for _, p := range parts {
			seq.Merge(p)
		}
		if batch.N() != seq.N() {
			t.Fatalf("seed %d: batch N %d != sequential N %d", seed, batch.N(), seq.N())
		}
		if batch.Floor() > seq.Floor() {
			t.Fatalf("seed %d: batch floor %d looser than sequential %d", seed, batch.Floor(), seq.Floor())
		}
	}
}

func TestSketchFromPartsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := NewSketch(8)
	oracle := make(map[uint64]uint64)
	offerStream(r, s, oracle, 1000)
	re := FromParts(s.K(), s.N(), s.Floor(), s.Top())
	if !sameSketch(s, re) {
		t.Fatalf("FromParts round trip mismatch")
	}
	// The rebuilt sketch must keep absorbing offers soundly.
	offerStream(r, re, oracle, 500)
	checkBounds(t, re, oracle)
}

// FuzzSketchOracle drives arbitrary offer/merge interleavings from raw
// bytes and asserts the bracketing guarantees against an exact
// histogram after every step.
func FuzzSketchOracle(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(4))
	f.Add([]byte{0, 0, 0, 0, 9, 9, 1, 2, 3, 200}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8) {
		k := int(kRaw%32) + 1
		s := NewSketch(k)
		side := NewSketch(k)
		oracle := make(map[uint64]uint64)
		sideOracle := make(map[uint64]uint64)
		// The exact part (Tally.Part): the whole stream counted, truncated
		// once — against the same stream offered to one sketch.
		var tally, half Tally
		offered := NewSketch(k)
		stream := make(map[uint64]uint64)
		for i := 0; i+1 < len(data); i += 2 {
			key := uint64(data[i])
			w := uint64(data[i+1]%7) + 1
			offered.OfferN(key, w)
			stream[key] += w
			if i%4 == 0 {
				tally.AddN(key, w)
			} else {
				half.AddN(key, w) // merged in below, as per-task folds are
			}
			switch data[i] % 3 {
			case 0, 1:
				s.OfferN(key, w)
				oracle[key] += w
			case 2:
				side.OfferN(key, w)
				sideOracle[key] += w
				if data[i+1]%5 == 0 {
					s.Merge(side)
					for kk, vv := range sideOracle {
						oracle[kk] += vv
					}
					side = NewSketch(k)
					sideOracle = make(map[uint64]uint64)
				}
			}
		}
		var total uint64
		for _, v := range oracle {
			total += v
		}
		if s.N() != total {
			t.Fatalf("N = %d, oracle total %d", s.N(), total)
		}
		checkBoundsFuzz(t, s, oracle)

		// Offering on into a Clone and into a FromParts rebuild — both start
		// without a lookup index — keeps the brackets and leaves s as it was.
		n := s.N()
		for _, c := range []*Sketch{s.Clone(), FromParts(k, s.N(), s.Floor(), s.Top())} {
			more := maps.Clone(oracle)
			for i := 1; i < len(data); i += 2 {
				key := uint64(data[i] % 16)
				c.Offer(key)
				more[key]++
			}
			if c.N() != n+uint64(len(data)/2) {
				t.Fatalf("offered-on copy N = %d, want %d", c.N(), n+uint64(len(data)/2))
			}
			checkBoundsFuzz(t, c, more)
		}
		if s.N() != n {
			t.Fatalf("offers to a copy moved the original's N to %d", s.N())
		}
		checkBoundsFuzz(t, s, oracle)

		tally.Merge(&half)
		part := tally.Part(k)
		if part.N() != offered.N() {
			t.Fatalf("exact part N = %d, stream weight %d", part.N(), offered.N())
		}
		checkBoundsFuzz(t, part, stream)
		checkBoundsFuzz(t, offered, stream)
		for _, e := range part.Top() {
			if e.Err != 0 || e.Count != stream[e.Key] {
				t.Fatalf("exact part key %d: count %d err %d, true %d", e.Key, e.Count, e.Err, stream[e.Key])
			}
		}
		if part.Len() != min(k, len(stream)) {
			t.Fatalf("exact part keeps %d of %d keys at capacity %d", part.Len(), len(stream), k)
		}
		if part.Floor() > offered.Floor() {
			t.Fatalf("exact part floor %d above the offer-built sketch's %d", part.Floor(), offered.Floor())
		}
		if part.Exact() != (len(stream) <= k) {
			t.Fatalf("exact part Exact() = %v with %d keys at capacity %d", part.Exact(), len(stream), k)
		}
	})
}

func checkBoundsFuzz(t *testing.T, s *Sketch, oracle map[uint64]uint64) {
	t.Helper()
	seen := make(map[uint64]bool)
	for _, e := range s.Top() {
		seen[e.Key] = true
		truth := oracle[e.Key]
		if truth > e.Count || e.Count-e.Err > truth {
			t.Fatalf("key %d: true %d outside [%d, %d]", e.Key, truth, e.Count-e.Err, e.Count)
		}
	}
	for k, truth := range oracle {
		if !seen[k] && truth > s.Floor() {
			t.Fatalf("key %d true %d > floor %d but unmonitored", k, truth, s.Floor())
		}
	}
}

// FuzzSketchMergeMany scatters fuzz input over several partial sketches
// and asserts the batch combine preserves total weight, stays sound
// against the union histogram, and is invariant under part permutation.
func FuzzSketchMergeMany(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(3), uint8(3))
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0}, uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, mRaw uint8) {
		k := int(kRaw%16) + 1
		m := int(mRaw%6) + 1
		parts := make([]*Sketch, m)
		for i := range parts {
			parts[i] = NewSketch(k)
		}
		oracle := make(map[uint64]uint64)
		for i := 0; i+1 < len(data); i += 2 {
			key := uint64(data[i])
			w := uint64(data[i+1]%9) + 1
			parts[int(data[i+1])%m].OfferN(key, w)
			oracle[key] += w
		}
		batch := NewSketch(k)
		batch.MergeMany(parts)
		var total uint64
		for _, v := range oracle {
			total += v
		}
		if batch.N() != total {
			t.Fatalf("N = %d, oracle total %d", batch.N(), total)
		}
		checkBoundsFuzz(t, batch, oracle)
		rev := NewSketch(k)
		revParts := make([]*Sketch, m)
		for i := range parts {
			revParts[m-1-i] = parts[i]
		}
		rev.MergeMany(revParts)
		if !sameSketch(batch, rev) {
			t.Fatalf("MergeMany not permutation-invariant: %+v vs %+v", batch.Top(), rev.Top())
		}
	})
}

// FuzzSketchMergeCommute builds two sketches from split fuzz input and
// asserts the two merge orders agree exactly.
func FuzzSketchMergeCommute(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{5, 6, 7, 8}, uint8(3))
	f.Fuzz(func(t *testing.T, da, db []byte, kRaw uint8) {
		k := int(kRaw%16) + 1
		a, b := NewSketch(k), NewSketch(k)
		for i := 0; i+1 < len(da); i += 2 {
			a.OfferN(uint64(da[i]), uint64(da[i+1]%9)+1)
		}
		for i := 0; i+1 < len(db); i += 2 {
			b.OfferN(uint64(db[i]), uint64(db[i+1]%9)+1)
		}
		ab, ba := a.Clone(), b.Clone()
		ab.Merge(b)
		ba.Merge(a)
		if !sameSketch(ab, ba) {
			t.Fatalf("merge order changed result: %+v vs %+v", ab.Top(), ba.Top())
		}
	})
}
