package hypercube

import (
	"testing"
	"time"

	"mind/internal/transport/simnet"
	"mind/internal/wire"
)

// tapHeartbeats records, per directed pair "from>to", when each heartbeat
// was delivered. On a link of fixed latency a delivery trails its send by
// that latency.
func tapHeartbeats(net *simnet.Network, nodes []*testNode) map[string][]time.Time {
	log := map[string][]time.Time{}
	for _, tn := range nodes {
		to := tn.name
		tn.tap = func(from string, m wire.Message) {
			if _, ok := m.(*wire.Heartbeat); ok {
				log[from+">"+to] = append(log[from+">"+to], net.Now())
			}
		}
	}
	return log
}

// holds reports whether tn has a contact entry under addr.
func holds(tn *testNode, addr string) bool {
	for _, c := range tn.ov.Contacts() {
		if c.Addr == addr {
			return true
		}
	}
	return false
}

// TestHeartbeatPacing: on a settled overlay each node sends each contact
// exactly one heartbeat per interval, on its own tick or as the answer to
// the contact's, so consecutive sends are one interval apart, well under
// FailAfter, and no contact is ever suspected.
func TestHeartbeatPacing(t *testing.T) {
	cfg := testConfig()
	// Every node keeps every other: no level-cap eviction reshuffles the
	// contact set during the window.
	cfg.MaxContactsPerLevel = 8
	net := simnet.New(simnet.Config{Seed: 5, DefaultLatency: 5 * time.Millisecond})
	nodes := newCluster(t, net, 8, cfg)
	joinAll(t, net, nodes, true)
	net.RunFor(5 * time.Second)

	log := tapHeartbeats(net, nodes)
	start := net.Now()
	const intervals = 10
	net.RunFor(intervals * cfg.HeartbeatInterval)

	pairs := 0
	for _, tn := range nodes {
		for _, c := range tn.ov.Snapshot().Contacts {
			pairs++
			if c.Probing || c.Unreachable {
				t.Errorf("%s suspects %s (probing=%v unreachable=%v)", tn.name, c.Addr, c.Probing, c.Unreachable)
			}
			got := log[tn.name+">"+c.Addr]
			per := make([]int, intervals)
			for _, at := range got {
				if k := int(at.Sub(start) / cfg.HeartbeatInterval); k < intervals {
					per[k]++
				}
			}
			for k, n := range per {
				if n != 1 {
					t.Errorf("%s -> %s: %d heartbeats in interval %d, want 1", tn.name, c.Addr, n, k)
				}
			}
			for i := 1; i < len(got); i++ {
				if gap := got[i].Sub(got[i-1]); gap < cfg.HeartbeatInterval || gap >= 2*cfg.HeartbeatInterval {
					t.Errorf("%s -> %s: heartbeats %v apart, want within [%v, %v)", tn.name, c.Addr, gap, cfg.HeartbeatInterval, 2*cfg.HeartbeatInterval)
				}
			}
		}
	}
	if pairs < 2*len(nodes) {
		t.Fatalf("only %d contact entries across %d nodes", pairs, len(nodes))
	}
}

// TestHeartbeatAnswer: a heartbeat from a contact this node has not sent
// one to within the interval is answered at once; one from a contact it
// has sent to within the interval is not, so an answer is never answered
// and two nodes never ping-pong.
func TestHeartbeatAnswer(t *testing.T) {
	cfg := testConfig()
	// Ticks at 10, 20, 30 s: the window below, 25–27 s, sees none.
	cfg.HeartbeatInterval = 10 * time.Second
	cfg.FailAfter = 40 * time.Second
	net := simnet.New(simnet.Config{Seed: 3, DefaultLatency: 5 * time.Millisecond})
	nodes := newCluster(t, net, 2, cfg)
	joinAll(t, net, nodes, true)
	net.RunFor(25 * time.Second)
	a, b := nodes[0], nodes[1]
	log := tapHeartbeats(net, nodes)

	// a sends b a heartbeat; b last sent to a more than an interval ago.
	now := net.Now()
	a.ov.mu.Lock()
	a.ov.contacts[b.name].sentAt = now
	a.ov.mu.Unlock()
	b.ov.mu.Lock()
	b.ov.contacts[a.name].sentAt = now.Add(-cfg.HeartbeatInterval)
	b.ov.mu.Unlock()
	b.ov.Handle(a.name, &wire.Heartbeat{From: a.ov.Info()})
	net.RunFor(time.Second)
	if n := len(log[b.name+">"+a.name]); n != 1 {
		t.Fatalf("b sent a %d heartbeats, want the one answer", n)
	}
	if n := len(log[a.name+">"+b.name]); n != 0 {
		t.Fatalf("a answered the answer (%d heartbeats)", n)
	}

	// b has sent to a within the interval now: the next heartbeat from a
	// goes unanswered.
	b.ov.Handle(a.name, &wire.Heartbeat{From: a.ov.Info()})
	net.RunFor(time.Second)
	if n := len(log[b.name+">"+a.name]); n != 1 {
		t.Fatalf("b sent a %d heartbeats within one interval, want 1", n)
	}
}

// restartUnjoined replaces victim's process with a fresh, unjoined overlay
// listening on the same address, as a restart after a crash does.
func restartUnjoined(t *testing.T, net *simnet.Network, victim *testNode, cfg Config) *testNode {
	t.Helper()
	victim.ov.Close()
	victim.ep.Close()
	ep, err := net.Endpoint(victim.name)
	if err != nil {
		t.Fatal(err)
	}
	ghost := &testNode{ep: ep, name: victim.name}
	ghost.ov = New(ep, net.Clock(), cfg, 99, Callbacks{})
	ep.SetHandler(func(from string, data []byte) {
		if m, err := wire.Decode(data); err == nil {
			ghost.ov.Handle(from, m)
		}
	})
	return ghost
}

// ghostSetup settles a 6-node overlay, restarts as an unjoined process the
// node a join lookup prefers as split target (the shallowest code, the
// least among equals), and returns the survivors that held the old
// identity.
func ghostSetup(t *testing.T, cfg Config) (*simnet.Network, []*testNode, *testNode, []*testNode) {
	t.Helper()
	net := simnet.New(simnet.Config{Seed: 9, DefaultLatency: 5 * time.Millisecond})
	nodes := newCluster(t, net, 6, cfg)
	joinAll(t, net, nodes, true)
	net.RunFor(3 * time.Second)
	victim := nodes[0]
	for _, tn := range nodes[1:] {
		c, v := tn.ov.Code(), victim.ov.Code()
		if c.Len() < v.Len() || (c.Len() == v.Len() && c.Less(v)) {
			victim = tn
		}
	}
	var holders []*testNode
	for _, tn := range nodes {
		if tn != victim && holds(tn, victim.name) {
			holders = append(holders, tn)
		}
	}
	if len(holders) == 0 {
		t.Fatalf("no node holds %s", victim.name)
	}
	ghost := restartUnjoined(t, net, victim, cfg)
	var rest []*testNode
	for _, tn := range nodes {
		if tn != victim {
			rest = append(rest, tn)
		}
	}
	return net, rest, ghost, holders
}

// deathBound is how long after an identity's last frame every holder has
// declared it dead: FailAfter of silence, then the probe window of one
// more FailAfter, each noticed on the next tick (DESIGN.md §4g).
func deathBound(cfg Config) time.Duration {
	return 2*cfg.FailAfter + 2*cfg.HeartbeatInterval
}

// TestHeartbeatUnjoinedGhost: an unjoined process on a dead node's address
// neither answers the heartbeats meant for its predecessor nor learns from
// them, so every holder declares the old identity dead within FailAfter
// plus the probe window.
func TestHeartbeatUnjoinedGhost(t *testing.T) {
	cfg := testConfig()
	net, _, ghost, holders := ghostSetup(t, cfg)
	answered := 0
	for _, tn := range holders {
		tn.tap = func(from string, _ wire.Message) {
			if from == ghost.name {
				answered++
			}
		}
	}
	deadline := net.Now().Add(deathBound(cfg))
	for net.Now().Before(deadline) {
		net.RunFor(cfg.HeartbeatInterval / 10)
	}
	for _, tn := range holders {
		if holds(tn, ghost.name) {
			t.Errorf("%s still holds %s %v after the restart", tn.name, ghost.name, deathBound(cfg))
		}
	}
	if answered != 0 {
		t.Errorf("the unjoined process sent %d frames", answered)
	}
	if ghost.ov.Joined() || len(ghost.ov.Contacts()) != 0 {
		t.Errorf("the unjoined process learned %d contacts (joined=%v)", len(ghost.ov.Contacts()), ghost.ov.Joined())
	}
}

// TestHeartbeatGhostJoinTraffic: a restarted process that joins at once
// sends join lookups to a holder of its old identity. That traffic is no
// evidence for the old identity, so the holders still declare it dead
// within the same bound and the process joins under a new identity.
// Were the lookups to keep the old entry fresh, the holders' lookup
// answers would keep offering it as a split target that refuses every
// join, the restarted process's own included.
func TestHeartbeatGhostJoinTraffic(t *testing.T) {
	cfg := testConfig()
	net, rest, ghost, holders := ghostSetup(t, cfg)
	ghost.ov.Join(holders[0].name)
	if !net.RunUntil(ghost.ov.Joined, 5_000_000) {
		t.Fatal("the restarted process never joined")
	}
	net.RunFor(deathBound(cfg))
	checkPartition(t, append(rest, ghost))
}
