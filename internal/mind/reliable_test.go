package mind

import (
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
