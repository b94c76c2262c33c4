package hypercube

import (
	"testing"
	"time"

	"mind/internal/bitstr"
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
	src.ov.Handle(victimAddr, &wire.Heartbeat{From: wire.NodeInfo{Addr: victimAddr, Code: victimCode}, Seq: 1})
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

func TestCanResumeCallback(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 67, DefaultLatency: 5 * time.Millisecond})
	nodes := newCluster(t, net, 6, testConfig())
	// Wire a CanResume that volunteers for one specific target.
	special := bitstr.MustParse("1111111111")
	resumed := map[string][]byte{}
	for _, tn := range nodes {
		tn := tn
		tn.ov.cb.CanResume = func(target bitstr.Code) bool {
			return tn.name == "n04" && target.Equal(special)
		}
		tn.ov.cb.OnResume = func(from string, payload []byte) {
			resumed[tn.name] = payload
		}
	}
	joinAll(t, net, nodes, true)
	net.RunFor(3 * time.Second)

	// A probe for a target nobody matches better than n00: only the
	// CanResume volunteer may take it.
	origin := nodes[0]
	origin.ov.mu.Lock()
	origin.ov.contacts = map[string]*contact{}
	origin.ov.mu.Unlock()
	// Rebuild one contact so the broadcast has somewhere to go.
	origin.ov.Handle(nodes[1].name, &wire.Heartbeat{From: nodes[1].ov.Info(), Seq: 9})
	origin.ov.RingRecover(special, []byte("payload"))
	net.RunFor(30 * time.Second)
	if _, ok := resumed["n04"]; !ok {
		// The probe may also have been resumed by a genuinely
		// better-matching node; accept either, but SOMEONE must resume.
		if len(resumed) == 0 {
			t.Fatal("no resumption at all")
		}
	}
}

// ringChain hand-builds a frozen four-node chain A—B—C—D (no heartbeats,
// no joins): each node only knows its neighbors, so a ring probe from A
// needs successively wider TTLs to reach D, the only node owning the
// target region "1".
func ringChain(t *testing.T, net *simnet.Network, cfg Config) []*testNode {
	t.Helper()
	specs := []struct{ name, code string }{
		{"ra", "000"}, {"rb", "001"}, {"rc", "01"}, {"rd", "1"},
	}
	nodes := make([]*testNode, len(specs))
	for i, s := range specs {
		ep, err := net.Endpoint(s.name)
		if err != nil {
			t.Fatal(err)
		}
		tn := &testNode{ep: ep, name: s.name}
		tn.ov = New(ep, net.Clock(), cfg, int64(3000+i), Callbacks{})
		ep.SetHandler(func(from string, data []byte) {
			m, err := wire.Decode(data)
			if err != nil {
				t.Errorf("%s: decode: %v", tn.name, err)
				return
			}
			tn.ov.Handle(from, m)
		})
		tn.ov.mu.Lock()
		tn.ov.joined = true
		tn.ov.code = bitstr.MustParse(s.code)
		tn.ov.mu.Unlock()
		nodes[i] = tn
	}
	link := func(a, b *testNode) {
		now := net.Clock().Now()
		a.ov.mu.Lock()
		a.ov.contacts[b.name] = &contact{info: wire.NodeInfo{Addr: b.name, Code: b.ov.code}, lastSeen: now}
		a.ov.mu.Unlock()
		b.ov.mu.Lock()
		b.ov.contacts[a.name] = &contact{info: wire.NodeInfo{Addr: a.name, Code: a.ov.code}, lastSeen: now}
		b.ov.mu.Unlock()
	}
	link(nodes[0], nodes[1])
	link(nodes[1], nodes[2])
	link(nodes[2], nodes[3])
	return nodes
}

func TestRingRecoverTTLEscalation(t *testing.T) {
	// The target is three hops from the origin, so rings with TTL 1 and 2
	// die out and only the third escalation (TTL 3) reaches the owner:
	// the expanding ring must actually expand through nodes earlier
	// rounds already touched, and the RingResumed notification must stop
	// the fourth round from being launched.
	net := simnet.New(simnet.Config{Seed: 73, DefaultLatency: 5 * time.Millisecond})
	cfg := testConfig()
	cfg.RingTTLs = []uint8{1, 2, 3, 3}
	cfg.RingTimeout = time.Second
	nodes := ringChain(t, net, cfg)
	a, b, d := nodes[0], nodes[1], nodes[3]

	var resumes []string
	var resumedAt []time.Time
	var gotPayload []byte
	for _, tn := range nodes {
		tn := tn
		tn.ov.cb.OnResume = func(from string, payload []byte) {
			resumes = append(resumes, tn.name)
			resumedAt = append(resumedAt, net.Clock().Now())
			gotPayload = payload
			if from != a.name {
				t.Errorf("resume reports origin %q, want %q", from, a.name)
			}
		}
	}
	// Count ring-probe frames B receives from the origin: one per
	// launched round.
	launched := 0
	prev := b.ep
	bHandler := func(from string, data []byte) {
		m, err := wire.Decode(data)
		if err != nil {
			t.Errorf("rb: decode: %v", err)
			return
		}
		if _, ok := m.(*wire.RingProbe); ok && from == a.name {
			launched++
		}
		b.ov.Handle(from, m)
	}
	prev.SetHandler(bHandler)

	start := net.Clock().Now()
	a.ov.RingRecover(bitstr.MustParse("1"), []byte("stuck"))
	net.RunFor(10 * time.Second)

	if len(resumes) != 1 || resumes[0] != d.name {
		t.Fatalf("resumes = %v, want exactly one at %s", resumes, d.name)
	}
	if string(gotPayload) != "stuck" {
		t.Fatalf("payload %q corrupted", gotPayload)
	}
	if got := resumedAt[0].Sub(start); got < 2*cfg.RingTimeout {
		t.Fatalf("resumed after %v, before the TTL-3 round could have launched", got)
	}
	if launched != 3 {
		t.Fatalf("origin launched %d rounds, want 3 (TTL 1, 2, 3; 4th suppressed by RingResumed)", launched)
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
