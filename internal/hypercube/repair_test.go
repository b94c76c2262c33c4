package hypercube

import (
	"testing"
	"time"

	"mind/internal/transport/simnet"
	"mind/internal/wire"
)

// Tests for the §3.8 repair machinery added on top of the basic
// overlay: unreachable-contact suspension, liveness-probe-gated
// takeover, and neighbor-level refill.

func TestUnreachableContactSkippedByRouting(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 61, DefaultLatency: 5 * time.Millisecond})
	nodes := newCluster(t, net, 8, testConfig())
	joinAll(t, net, nodes, true)
	net.RunFor(3 * time.Second)

	src := nodes[2]
	// Mark one contact unreachable by hand and verify NextHop avoids it
	// while an equivalent route exists.
	src.ov.mu.Lock()
	var victim *contact
	for _, c := range src.ov.contacts {
		victim = c
		break
	}
	victim.unreachable = true
	victimAddr := victim.info.Addr
	victimCode := victim.info.Code
	src.ov.mu.Unlock()

	// Routing toward the victim's exact code must not pick the victim.
	if next, ok := src.ov.NextHop(victimCode); ok && next == victimAddr {
		t.Fatalf("routing chose unreachable contact %s", next)
	}
	// Receiving traffic from the victim clears the flag.
	src.ov.Handle(victimAddr, &wire.Heartbeat{From: wire.NodeInfo{Addr: victimAddr, Code: victimCode}})
	if next, ok := src.ov.NextHop(victimCode); !ok || next != victimAddr {
		t.Fatalf("cleared contact not used again (next=%q ok=%v)", next, ok)
	}
}

func TestLinkOutageDoesNotKillAliveNode(t *testing.T) {
	// A long outage between two nodes must not trigger a takeover while
	// the peer stays reachable by the rest of the overlay: the liveness
	// probe attests to it (§3.8's reconnect-vs-repair distinction).
	net := simnet.New(simnet.Config{Seed: 63, DefaultLatency: 5 * time.Millisecond})
	cfg := testConfig()
	nodes := newCluster(t, net, 8, cfg)
	joinAll(t, net, nodes, true)
	net.RunFor(3 * time.Second)

	// Find an exact sibling pair.
	var a, b *testNode
	for _, x := range nodes {
		for _, y := range nodes {
			if x != y && x.ov.Code().Sibling().Equal(y.ov.Code()) {
				a, b = x, y
			}
		}
	}
	if a == nil {
		t.Fatal("seed 63 builds no exact sibling pair: pick a seed that does")
	}
	codeA, codeB := a.ov.Code(), b.ov.Code()
	net.CutLink(a.name, b.name)
	net.RunFor(20 * cfg.FailAfter)
	if !a.ov.Code().Equal(codeA) || !b.ov.Code().Equal(codeB) {
		t.Fatalf("takeover despite peer being alive: %s→%s, %s→%s",
			codeA, a.ov.Code(), codeB, b.ov.Code())
	}
	// Once the peer actually dies, the takeover proceeds.
	net.Kill(b.name)
	net.RunFor(20 * cfg.FailAfter)
	if a.ov.Code().Equal(codeA) {
		t.Fatal("no takeover after genuine death")
	}
}

func TestLevelRepairRefillsEmptyLevel(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 65, DefaultLatency: 5 * time.Millisecond})
	cfg := testConfig()
	nodes := newCluster(t, net, 16, cfg)
	joinAll(t, net, nodes, true)
	net.RunFor(3 * time.Second)

	src := nodes[3]
	// Drop every level-0 contact (opposite half of the code space).
	src.ov.mu.Lock()
	my := src.ov.code
	for addr, c := range src.ov.contacts {
		if my.CommonPrefixLen(c.info.Code) == 0 {
			delete(src.ov.contacts, addr)
		}
	}
	src.ov.mu.Unlock()

	empty := func() bool {
		src.ov.mu.Lock()
		defer src.ov.mu.Unlock()
		for _, c := range src.ov.contacts {
			if my.CommonPrefixLen(c.info.Code) == 0 {
				return false
			}
		}
		return true
	}
	if !empty() {
		t.Fatal("setup failed to empty level 0")
	}
	// Heartbeat ticks must repair the level via routed lookups.
	net.RunFor(20 * cfg.HeartbeatInterval)
	if empty() {
		t.Fatal("level 0 never refilled")
	}
	// Routing across the first bit works again.
	target := my.FlipBit(0)
	if _, ok := src.ov.NextHop(target); !ok {
		t.Fatal("no route across repaired level")
	}
}

func TestRelocationTakeoverCoversDeadPair(t *testing.T) {
	// Four nodes: 00, 01, 10, 11. Kill the pair {10, 11}. Neither
	// survivor's direct sibling region is dead, so the §3.8 recursive
	// rule applies: the 1-side of the live pair (01) relocates into the
	// dead region and its sibling (00) absorbs the vacated region. The
	// survivors must re-tile the whole code space.
	net := simnet.New(simnet.Config{Seed: 71, DefaultLatency: 5 * time.Millisecond})
	cfg := testConfig()
	nodes := newCluster(t, net, 4, cfg)
	joinAll(t, net, nodes, true)
	net.RunFor(3 * time.Second)
	checkPartition(t, nodes)

	var survivors []*testNode
	killed := 0
	for _, tn := range nodes {
		if tn.ov.Code().Bit(0) == 1 && killed < 2 {
			net.Kill(tn.name)
			killed++
		} else {
			survivors = append(survivors, tn)
		}
	}
	if killed != 2 || len(survivors) != 2 {
		t.Fatalf("seed 71 builds no clean half split (killed=%d): pick a seed that does", killed)
	}
	net.RunFor(40 * cfg.FailAfter)

	total := 0.0
	for _, tn := range survivors {
		c := tn.ov.Code()
		total += 1 / float64(uint64(1)<<uint(c.Len()))
	}
	if total != 1.0 {
		for _, tn := range survivors {
			t.Logf("%s code=%s", tn.name, tn.ov.Code())
		}
		t.Fatalf("survivors tile %.4f of the space after dead-pair relocation", total)
	}
	// Codes must be prefix-free between the survivors.
	a, b := survivors[0].ov.Code(), survivors[1].ov.Code()
	if a.IsPrefixOf(b) || b.IsPrefixOf(a) {
		t.Fatalf("overlapping survivor codes %s / %s", a, b)
	}
}

func TestSuspectContactProbesNotKills(t *testing.T) {
	// SuspectContact on a live, reachable peer must divert routing away
	// immediately but not evict the peer: the liveness probe attests to
	// it and direct heartbeats then clear the suspicion.
	net := simnet.New(simnet.Config{Seed: 75, DefaultLatency: 5 * time.Millisecond})
	cfg := testConfig()
	nodes := newCluster(t, net, 8, cfg)
	joinAll(t, net, nodes, true)
	net.RunFor(3 * time.Second)

	src := nodes[2]
	src.ov.mu.Lock()
	var victim string
	for addr := range src.ov.contacts {
		if victim == "" || addr < victim {
			victim = addr
		}
	}
	c := src.ov.contacts[victim]
	code := c.info.Code
	src.ov.mu.Unlock()

	src.ov.SuspectContact(victim)
	src.ov.mu.Lock()
	unreachable := src.ov.contacts[victim] != nil && src.ov.contacts[victim].unreachable
	src.ov.mu.Unlock()
	if !unreachable {
		t.Fatal("suspected contact not marked unreachable")
	}
	if next, ok := src.ov.NextHop(code); ok && next == victim {
		t.Fatal("routing still picks the suspect")
	}

	net.RunFor(4 * cfg.FailAfter)
	src.ov.mu.Lock()
	kept := src.ov.contacts[victim]
	cleared := kept != nil && !kept.unreachable
	src.ov.mu.Unlock()
	if !cleared {
		t.Fatalf("live suspect evicted or still unreachable (kept=%v)", kept != nil)
	}
}

func TestSuspectContactEvictsDeadPeer(t *testing.T) {
	// Suspecting a genuinely dead peer must end in eviction through the
	// normal probe-window machinery.
	net := simnet.New(simnet.Config{Seed: 77, DefaultLatency: 5 * time.Millisecond})
	cfg := testConfig()
	nodes := newCluster(t, net, 8, cfg)
	joinAll(t, net, nodes, true)
	net.RunFor(3 * time.Second)

	src := nodes[1]
	src.ov.mu.Lock()
	var victim string
	for addr := range src.ov.contacts {
		if victim == "" || addr < victim {
			victim = addr
		}
	}
	src.ov.mu.Unlock()

	net.Kill(victim)
	src.ov.SuspectContact(victim)
	net.RunFor(10 * cfg.FailAfter)
	src.ov.mu.Lock()
	_, still := src.ov.contacts[victim]
	src.ov.mu.Unlock()
	if still {
		t.Fatalf("dead suspect %s never evicted", victim)
	}
}
