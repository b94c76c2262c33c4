package mind

import (
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"mind/internal/transport"
)

// Unit tests for the reliable-request-layer primitives: the bounded
// idempotency cache and the backoff schedule.

func TestDedupSetRemembersAndBounds(t *testing.T) {
	s := newDedupSet(8)
	if s.Seen(1) {
		t.Fatal("fresh key reported seen")
	}
	if !s.Seen(1) {
		t.Fatal("repeated key not remembered")
	}
	// Fill well past two generations; memory must stay bounded and the
	// most recent keys must survive the rotations.
	for k := uint64(2); k < 100; k++ {
		s.Seen(k)
	}
	if s.Len() > 16 {
		t.Fatalf("dedup set grew to %d entries, cap is 8 per generation", s.Len())
	}
	if !s.Seen(99) {
		t.Fatal("most recent key forgotten")
	}
	if s.Seen(1) {
		t.Fatal("ancient key still remembered: rotation never evicts")
	}
}

func TestDedupSetMinimumWindow(t *testing.T) {
	// A key inserted at most cap-1 fresh keys ago must still be present:
	// the previous generation guarantees it.
	s := newDedupSet(16)
	s.Seen(1000)
	for k := uint64(0); k < 15; k++ {
		s.Seen(k)
	}
	if !s.Seen(1000) {
		t.Fatal("key evicted inside the guaranteed window")
	}
}

// TestDedupSetKeyZero: the table's empty slot is 0, so key 0 lives in
// its own flag — remembered, counted, rotated with its generation and
// forgotten with it like any other key.
func TestDedupSetKeyZero(t *testing.T) {
	s := newGenSet[int](4)
	if _, ok := s.Get(0); ok || s.Seen(0) {
		t.Fatal("fresh set holds key 0")
	}
	if !s.Seen(0) || s.Len() != 1 {
		t.Fatalf("key 0 not remembered (Len %d)", s.Len())
	}
	s.Put(0, 7)
	if v, ok := s.Get(0); !ok || v != 7 || s.Len() != 1 {
		t.Fatalf("Put over key 0: Get = %d, %v, Len %d", v, ok, s.Len())
	}
	for k := uint64(1); k <= 4; k++ { // fills the generation, then rotates it out
		s.Seen(k)
	}
	if v, ok := s.Get(0); !ok || v != 7 {
		t.Fatal("key 0 lost in the rotation to the previous generation")
	}
	for k := uint64(5); k <= 8; k++ { // rotates the generation holding key 0 away
		s.Seen(k)
	}
	if _, ok := s.Get(0); ok {
		t.Fatal("key 0 outlived two rotations")
	}
	if s.Seen(0) || !s.Seen(0) {
		t.Fatal("key 0 not re-admitted after it was forgotten")
	}
}

// collidingKeys returns n non-zero keys sharing one home slot in a table
// of size slots.
func collidingKeys(n, size int) []uint64 {
	probe := genTable[struct{}]{shift: uint(64 - bits.TrailingZeros(uint(size)))}
	var out []uint64
	for k := uint64(1); len(out) < n; k++ {
		if probe.slot(k) == probe.slot(1) {
			out = append(out, k)
		}
	}
	return out
}

// TestDedupSetCollidingKeysAcrossRotation: keys that share a home slot
// probe past each other in the current generation, keep their values
// when the generation rotates to the previous one, do not shadow each
// other when the same slot is reused in the recycled table, and are
// forgotten together with their generation.
func TestDedupSetCollidingKeysAcrossRotation(t *testing.T) {
	const capacity = 8
	s := newGenSet[uint64](capacity)
	keys := collidingKeys(3*capacity, s.limit())
	for i, k := range keys[:capacity] {
		s.Put(k, uint64(i))
	}
	for i, k := range keys[capacity:] { // the second generation's keys collide with the first's
		if _, ok := s.Get(k); ok {
			t.Fatalf("colliding key %d reported present before it was put", k)
		}
		s.Put(k, uint64(capacity+i))
		if i == capacity-1 {
			for j, k := range keys[:2*capacity] {
				if v, ok := s.Get(k); !ok || v != uint64(j) {
					t.Fatalf("colliding key %d after one rotation: Get = %d, %v; want %d", k, v, ok, j)
				}
			}
		}
	}
	for j, k := range keys {
		v, ok := s.Get(k)
		if want := j >= capacity; ok != want || ok && v != uint64(j) {
			t.Fatalf("colliding key %d (#%d) after two rotations: Get = %d, %v; want present=%v", k, j, v, ok, want)
		}
	}
	if s.Len() != 2*capacity {
		t.Fatalf("Len = %d, want %d", s.Len(), 2*capacity)
	}
}

// TestDedupSetGrowth: a generation starts small and doubles as it fills,
// never past half full and never past the size its cap needs, keeping
// every key and value through each rehash.
func TestDedupSetGrowth(t *testing.T) {
	const capacity = 1000
	s := newGenSet[uint64](capacity)
	sizes := map[int]bool{}
	for k := uint64(1); k <= capacity; k++ {
		s.Put(k<<32|k, k)
		if 2*s.cur.n > len(s.cur.keys) || len(s.cur.keys) > s.limit() {
			t.Fatalf("after %d keys: table of %d slots holds %d", k, len(s.cur.keys), s.cur.n)
		}
		sizes[len(s.cur.keys)] = true
	}
	if len(sizes) < 4 || len(s.cur.keys) != 2048 {
		t.Fatalf("table sizes %v ending at %d: it should start small and grow to 2048", sizes, len(s.cur.keys))
	}
	for k := uint64(1); k <= capacity; k++ {
		if v, ok := s.Get(k<<32 | k); !ok || v != k {
			t.Fatalf("key %d after growth: Get = %d, %v", k, v, ok)
		}
	}
}

// TestMarkOpKeepsGenerationBoundary: flood-op dedup is a two-generation
// set, so an op id marked just before the current generation fills is
// still refused just after the rotation — a late flood copy is never
// re-accepted and re-flooded because the set happened to turn over.
func TestMarkOpKeepsGenerationBoundary(t *testing.T) {
	n := NewNode(&failEndpoint{addr: "self"}, transport.RealClock{}, DefaultConfig(1))
	defer n.Close()
	const last = uint64(1 << 40) // the op id marked just before the boundary
	for id := uint64(1); id < dedupCap; id++ {
		if !n.markOp(id) {
			t.Fatalf("fresh op %d refused", id)
		}
	}
	if !n.markOp(last) {
		t.Fatal("fresh op refused at the boundary")
	}
	if !n.markOp(last + 1) { // rotates: the full generation becomes the previous one
		t.Fatal("fresh op refused past the boundary")
	}
	if n.markOp(last) {
		t.Fatal("op marked just before the generation boundary re-accepted just after it")
	}
	if n.markOp(1) {
		t.Fatal("oldest op of the previous generation re-accepted")
	}
}

func TestRetryDelaySchedule(t *testing.T) {
	n := &Node{
		cfg: Config{RetryBase: time.Second, RetryMax: 8 * time.Second, MaxRetries: 4},
		rng: rand.New(rand.NewSource(7)),
	}
	for attempt, base := range map[int]time.Duration{
		1: time.Second,
		2: 2 * time.Second,
		3: 4 * time.Second,
		4: 8 * time.Second,
		5: 8 * time.Second, // capped at RetryMax
		9: 8 * time.Second,
	} {
		d := n.retryDelayLocked(attempt)
		if d < base || d > base+base/4 {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, base, base+base/4)
		}
	}
}

func TestRetryDelayDeterministicPerSeed(t *testing.T) {
	sched := func(seed int64) []time.Duration {
		n := &Node{
			cfg: Config{RetryBase: time.Second, RetryMax: 8 * time.Second, MaxRetries: 4},
			rng: rand.New(rand.NewSource(seed)),
		}
		var out []time.Duration
		for a := 1; a <= 5; a++ {
			out = append(out, n.retryDelayLocked(a))
		}
		return out
	}
	a, b := sched(42), sched(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different jitter at step %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := sched(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter: jitter inactive")
	}
}

// BenchmarkDedupSet is the record-id dedup a replica holder or owner
// runs per record: ids shaped like nextRecID (an origin's 32-bit tag
// over its sequence number) from 8 origins interleaved at random, each
// id new, into a set of a store's size (dedupCap/2), warmed through two
// rotations first.
func BenchmarkDedupSet(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	var tags, seqs [8]uint64
	for i := range tags {
		tags[i] = r.Uint64() &^ 0xffffffff
	}
	next := func() uint64 {
		o := r.Intn(len(tags))
		seqs[o]++
		return tags[o] | seqs[o]&0xffffffff
	}
	s := newDedupSet(dedupCap / 2)
	for i := 0; i < dedupCap; i++ {
		s.Seen(next())
	}
	ids := make([]uint64, 1<<16)
	for i := range ids {
		ids[i] = next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(len(ids)-1) == 0 && i > 0 {
			b.StopTimer()
			for j := range ids {
				ids[j] = next()
			}
			b.StartTimer()
		}
		if s.Seen(ids[i&(len(ids)-1)]) {
			b.Fatal("fresh id reported seen")
		}
	}
}
