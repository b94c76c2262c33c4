package mind

import (
	"testing"
	"time"

	"mind/internal/transport/simnet"
)

// White-box coverage for the admission-control primitives: token-bucket
// refill arithmetic, generation rotation, and the pending-ops ceiling.

func TestBucketMapTake(t *testing.T) {
	bm := newBucketMap()
	t0 := time.Unix(1000, 0)

	// A new source opens with the burst balance.
	for i := 0; i < 3; i++ {
		if !bm.take(1, t0, 10, 3) {
			t.Fatalf("take %d refused within burst", i)
		}
	}
	if bm.take(1, t0, 10, 3) {
		t.Fatal("burst exceeded but admitted")
	}
	// Sources are independent.
	if !bm.take(2, t0, 10, 3) {
		t.Fatal("fresh source refused")
	}
	// Refill: 10 tokens/s for 250ms = 2.5 tokens.
	t1 := t0.Add(250 * time.Millisecond)
	if !bm.take(1, t1, 10, 3) || !bm.take(1, t1, 10, 3) {
		t.Fatal("refilled tokens refused")
	}
	if bm.take(1, t1, 10, 3) {
		t.Fatal("admitted beyond refill")
	}
	// Refill is capped at burst.
	t2 := t1.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if !bm.take(1, t2, 10, 3) {
			t.Fatalf("take %d refused after long idle", i)
		}
	}
	if bm.take(1, t2, 10, 3) {
		t.Fatal("burst cap not enforced after long idle")
	}
}

func TestBucketMapRotation(t *testing.T) {
	bm := newBucketMap()
	t0 := time.Unix(2000, 0)
	// Drain source 7 to zero, then flood enough distinct sources to
	// rotate the generations.
	if !bm.take(7, t0, 1, 1) {
		t.Fatal("opening take refused")
	}
	for k := uint64(100); len(bm.cur) < dedupCap; k++ {
		bm.take(k, t0, 1, 1)
	}
	bm.take(1<<40, t0, 1, 1) // triggers rotation
	if len(bm.cur) >= dedupCap {
		t.Fatal("generations did not rotate")
	}
	// Source 7 now lives in prev with an empty balance; promotion must
	// carry that balance (no refill at t0), not mint a fresh burst.
	if bm.take(7, t0, 1, 1) {
		t.Fatal("rotation refilled a drained bucket")
	}
}

func TestAdmitClientPendingCeiling(t *testing.T) {
	net := simnet.New(simnet.Config{})
	ep, err := net.Endpoint("n1")
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(ep, net.Clock(), DefaultConfig(1))
	defer n.Close()

	n.pendingGauge.Store(MaxPendingInserts - 1)
	if !n.admitClient("client", true) {
		t.Fatal("refused below the pending ceiling")
	}
	n.pendingGauge.Store(MaxPendingInserts)
	if n.admitClient("client", true) {
		t.Fatal("admitted at the pending ceiling")
	}
	// Queries and index control don't count pending inserts.
	if !n.admitClient("client", false) {
		t.Fatal("pending ceiling applied to a non-insert")
	}
	// Rate limiting disabled: admission is otherwise unconditional.
	n.pendingGauge.Store(0)
	for i := 0; i < 1000; i++ {
		if !n.admitClient("client", true) {
			t.Fatal("refused with rate limiting disabled")
		}
	}
}

// TestAdmitSubUnitRate: a limit below one request per second with the
// default burst admits one request per 1/rate seconds, on both bucket
// families — the bucket must hold a whole token, or it never admits.
func TestAdmitSubUnitRate(t *testing.T) {
	net := simnet.New(simnet.Config{})
	ep, err := net.Endpoint("n1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.ClientRateLimit = 0.5
	cfg.GossipRateLimit = 0.5
	n := NewNode(ep, net.Clock(), cfg)
	defer n.Close()

	admit := map[string]func() bool{
		"client": func() bool { return n.admitClient("client", false) },
		"gossip": func() bool { return n.admitGossip("peer") },
	}
	for period := 0; period < 3; period++ {
		for name, take := range admit {
			if !take() {
				t.Fatalf("%s: refused the request of period %d", name, period)
			}
			if take() {
				t.Fatalf("%s: admitted a second request in period %d", name, period)
			}
		}
		net.RunFor(time.Second)
		for name, take := range admit {
			if take() {
				t.Fatalf("%s: admitted a request half way through period %d", name, period)
			}
		}
		net.RunFor(time.Second)
	}
}
