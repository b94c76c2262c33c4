package hypercube

import (
	"fmt"
	"math"
	"testing"
	"time"

	"mind/internal/bitstr"
	"mind/internal/transport/simnet"
	"mind/internal/wire"
)

type testNode struct {
	ov   *Overlay
	ep   *simnet.Endpoint
	name string
	// tap, when set, sees every message the node receives before the
	// overlay handles it.
	tap func(from string, m wire.Message)
}

func testConfig() Config {
	c := DefaultConfig()
	c.HeartbeatInterval = 500 * time.Millisecond
	c.FailAfter = 1800 * time.Millisecond
	c.JoinTimeout = time.Second
	c.JoinRetryBackoff = 200 * time.Millisecond
	c.PrepareTimeout = time.Second
	return c
}

// newCluster creates n overlay nodes attached to a fresh simnet.
func newCluster(t *testing.T, net *simnet.Network, n int, cfg Config) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%02d", i)
		ep, err := net.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		tn := &testNode{ep: ep, name: name}
		tn.ov = New(ep, net.Clock(), cfg, int64(1000+i), Callbacks{})
		ep.SetHandler(func(from string, data []byte) {
			m, err := wire.Decode(data)
			if err != nil {
				t.Errorf("%s: decode: %v", name, err)
				return
			}
			if tn.tap != nil {
				tn.tap(from, m)
			}
			tn.ov.Handle(from, m)
		})
		nodes[i] = tn
	}
	return nodes
}

// joinAll bootstraps node 0 and joins the rest, sequentially if seq.
func joinAll(t *testing.T, net *simnet.Network, nodes []*testNode, seq bool) {
	t.Helper()
	nodes[0].ov.Bootstrap()
	if seq {
		for _, tn := range nodes[1:] {
			tn.ov.Join(nodes[0].name)
			ok := net.RunUntil(tn.ov.Joined, 2_000_000)
			if !ok {
				t.Fatalf("%s failed to join", tn.name)
			}
		}
		return
	}
	for _, tn := range nodes[1:] {
		tn.ov.Join(nodes[0].name)
	}
	allJoined := func() bool {
		for _, tn := range nodes {
			if !tn.ov.Joined() {
				return false
			}
		}
		return true
	}
	if !net.RunUntil(allJoined, 10_000_000) {
		for _, tn := range nodes {
			t.Logf("%s joined=%v code=%s", tn.name, tn.ov.Joined(), tn.ov.Code())
		}
		t.Fatal("concurrent join did not converge")
	}
}

// checkPartition verifies the live codes form a prefix-free exact tiling
// of the code space.
func checkPartition(t *testing.T, nodes []*testNode) {
	t.Helper()
	total := 0.0
	for _, c := range checkPrefixFree(t, nodes) {
		total += math.Pow(2, -float64(c.Len()))
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("codes tile %.6f of the space, want 1", total)
	}
}

// checkPrefixFree verifies that no two nodes' codes overlap, and returns
// the codes.
func checkPrefixFree(t *testing.T, nodes []*testNode) []bitstr.Code {
	t.Helper()
	var codes []bitstr.Code
	for _, tn := range nodes {
		codes = append(codes, tn.ov.Code())
	}
	for i, a := range codes {
		for j, b := range codes {
			if i == j {
				continue
			}
			if a.IsPrefixOf(b) || b.IsPrefixOf(a) {
				t.Fatalf("codes overlap: %s (%s) vs %s (%s)", a, nodes[i].name, b, nodes[j].name)
			}
		}
	}
	return codes
}

func TestBootstrapAndSingleJoin(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 1, DefaultLatency: 5 * time.Millisecond})
	nodes := newCluster(t, net, 2, testConfig())
	joinAll(t, net, nodes, true)
	c0, c1 := nodes[0].ov.Code(), nodes[1].ov.Code()
	if c0.Len() != 1 || c1.Len() != 1 || c0.Equal(c1) {
		t.Fatalf("codes after first join: %s, %s", c0, c1)
	}
	if !c0.Sibling().Equal(c1) {
		t.Fatalf("nodes are not siblings: %s, %s", c0, c1)
	}
	// Each knows the other.
	if len(nodes[0].ov.Contacts()) != 1 || len(nodes[1].ov.Contacts()) != 1 {
		t.Fatal("contacts not established")
	}
}

func TestSequentialJoinsPartition(t *testing.T) {
	for _, n := range []int{4, 9, 16, 34} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			net := simnet.New(simnet.Config{Seed: int64(n), DefaultLatency: 5 * time.Millisecond})
			nodes := newCluster(t, net, n, testConfig())
			joinAll(t, net, nodes, true)
			checkPartition(t, nodes)
		})
	}
}

func TestBalancedHypercube(t *testing.T) {
	// Adler joins keep code lengths within a small band of log2(n) with
	// high probability.
	net := simnet.New(simnet.Config{Seed: 7, DefaultLatency: 5 * time.Millisecond})
	nodes := newCluster(t, net, 64, testConfig())
	joinAll(t, net, nodes, true)
	checkPartition(t, nodes)
	min, max := 64, 0
	for _, tn := range nodes {
		l := tn.ov.Code().Len()
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max-min > 4 {
		t.Errorf("code length spread %d..%d too wide for 64 nodes", min, max)
	}
}

func TestConcurrentJoins(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 11, DefaultLatency: 5 * time.Millisecond, JitterFrac: 0.3})
	nodes := newCluster(t, net, 20, testConfig())
	joinAll(t, net, nodes, false)
	checkPartition(t, nodes)
}

// TestConcurrentJoinsWithLoss checks what may be wrong and what may be
// missing separately. A lost join-accept after the split target committed
// leaves a hole at the instant every node reports joined: the target
// holds the joiner as its sibling until failure detection declares that
// identity dead and the takeover rule absorbs the region. No two codes
// may overlap at any instant, and the tiling must be exact once the
// overlay has had time to repair.
func TestConcurrentJoinsWithLoss(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			net := simnet.New(simnet.Config{Seed: seed, DefaultLatency: 5 * time.Millisecond, LossProb: 0.02})
			nodes := newCluster(t, net, 12, testConfig())
			joinAll(t, net, nodes, false)
			checkPrefixFree(t, nodes)
			net.RunFor(10 * time.Second)
			checkPartition(t, nodes)
		})
	}
}

func TestGreedyRoutingReachesOwner(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 17, DefaultLatency: 5 * time.Millisecond})
	nodes := newCluster(t, net, 16, testConfig())
	joinAll(t, net, nodes, true)
	// Let heartbeats populate contact tables.
	net.RunFor(3 * time.Second)

	byAddr := map[string]*testNode{}
	for _, tn := range nodes {
		byAddr[tn.name] = tn
	}
	// From every node, greedily walk toward every node's exact code; the
	// walk must terminate at the owner within diameter hops.
	for _, src := range nodes {
		for _, dst := range nodes {
			target := dst.ov.Code()
			cur := src
			for hops := 0; ; hops++ {
				if cur.ov.Owns(target) {
					if cur != dst {
						t.Fatalf("route %s→%s ended at %s", src.name, dst.name, cur.name)
					}
					break
				}
				next, ok := cur.ov.NextHop(target)
				if !ok {
					t.Fatalf("dead end at %s routing to %s (%s)", cur.name, dst.name, target)
				}
				if hops > 20 {
					t.Fatalf("routing loop %s→%s", src.name, dst.name)
				}
				cur = byAddr[next]
			}
		}
	}
}

func TestRoutingDeepTargets(t *testing.T) {
	// Point codes deeper than any node code must land at exactly the one
	// node whose code prefixes them.
	net := simnet.New(simnet.Config{Seed: 19, DefaultLatency: 5 * time.Millisecond})
	nodes := newCluster(t, net, 10, testConfig())
	joinAll(t, net, nodes, true)
	net.RunFor(3 * time.Second)
	byAddr := map[string]*testNode{}
	for _, tn := range nodes {
		byAddr[tn.name] = tn
	}
	for i := 0; i < 100; i++ {
		target := bitstr.New(uint64(i)*2654435761, 24)
		owners := 0
		for _, tn := range nodes {
			if tn.ov.Code().IsPrefixOf(target) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("target %s has %d owners", target, owners)
		}
		cur := nodes[i%len(nodes)]
		for hops := 0; !cur.ov.Owns(target); hops++ {
			next, ok := cur.ov.NextHop(target)
			if !ok || hops > 20 {
				t.Fatalf("routing to %s failed at %s", target, cur.name)
			}
			cur = byAddr[next]
		}
		if !cur.ov.Code().IsPrefixOf(target) {
			t.Fatalf("delivered to non-owner %s for %s", cur.ov.Code(), target)
		}
	}
}

func TestSiblingTakeover(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 23, DefaultLatency: 5 * time.Millisecond})
	cfg := testConfig()
	nodes := newCluster(t, net, 2, cfg)
	var takeoverDead, takeoverOld bitstr.Code
	nodes[0].ov.cb.OnTakeover = func(dead, old bitstr.Code) { takeoverDead, takeoverOld = dead, old }
	joinAll(t, net, nodes, true)
	c0 := nodes[0].ov.Code()
	net.RunFor(time.Second)

	net.Kill(nodes[1].name)
	net.RunFor(10 * cfg.FailAfter)
	if got := nodes[0].ov.Code(); !got.IsEmpty() {
		t.Fatalf("survivor code = %s, want ε after takeover", got)
	}
	if !takeoverDead.Equal(c0.Sibling()) || !takeoverOld.Equal(c0) {
		t.Fatalf("takeover callback: dead=%s old=%s", takeoverDead, takeoverOld)
	}
}

func TestTakeoverCascade(t *testing.T) {
	// Kill three of four nodes; the survivor must collapse to the empty
	// code through recursive takeovers.
	net := simnet.New(simnet.Config{Seed: 29, DefaultLatency: 5 * time.Millisecond})
	cfg := testConfig()
	nodes := newCluster(t, net, 4, cfg)
	joinAll(t, net, nodes, true)
	net.RunFor(2 * time.Second)
	for _, tn := range nodes[1:] {
		net.Kill(tn.name)
	}
	deadline := 0
	for nodes[0].ov.Code().Len() > 0 && deadline < 100 {
		net.RunFor(cfg.FailAfter)
		deadline++
	}
	if got := nodes[0].ov.Code(); !got.IsEmpty() {
		t.Fatalf("survivor code = %s after cascade", got)
	}
}

func TestNoTakeoverWhenSiblingRegionAlive(t *testing.T) {
	// With 4+ nodes, killing one deep node must not make a node outside
	// its sibling pair shorten its code.
	net := simnet.New(simnet.Config{Seed: 31, DefaultLatency: 5 * time.Millisecond})
	cfg := testConfig()
	nodes := newCluster(t, net, 8, cfg)
	joinAll(t, net, nodes, true)
	net.RunFor(2 * time.Second)
	checkPartition(t, nodes)

	victim := nodes[3]
	vc := victim.ov.Code()
	net.Kill(victim.name)
	net.RunFor(6 * cfg.FailAfter)

	// Exactly the victim's region should have been absorbed: the
	// remaining codes still tile the space.
	var live []*testNode
	for _, tn := range nodes {
		if tn != victim {
			live = append(live, tn)
		}
	}
	total := 0.0
	covered := false
	for _, tn := range live {
		c := tn.ov.Code()
		total += math.Pow(2, -float64(c.Len()))
		if c.IsPrefixOf(vc) {
			covered = true
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("live codes tile %.4f of space", total)
	}
	if !covered {
		t.Error("victim region not absorbed by any survivor")
	}
}

func TestPreemptionShallowerWins(t *testing.T) {
	// Two targets at different depths splitting concurrently in the same
	// neighborhood: the approver must preempt the deeper one.
	net := simnet.New(simnet.Config{Seed: 37})
	nodes := newCluster(t, net, 1, testConfig())
	o := nodes[0].ov
	o.Bootstrap()

	deep := wire.NodeInfo{Addr: "deep", Code: bitstr.MustParse("0110")}
	shallow := wire.NodeInfo{Addr: "shallow", Code: bitstr.MustParse("01")}

	var sent []wire.Message
	deepEp, _ := net.Endpoint("deep")
	deepEp.SetHandler(func(_ string, data []byte) {
		m, _ := wire.Decode(data)
		sent = append(sent, m)
	})
	shallowEp, _ := net.Endpoint("shallow")
	var shallowGot []wire.Message
	shallowEp.SetHandler(func(_ string, data []byte) {
		m, _ := wire.Decode(data)
		shallowGot = append(shallowGot, m)
	})

	o.handleJoinPrepare("deep", &wire.JoinPrepare{Target: deep})
	o.handleJoinPrepare("shallow", &wire.JoinPrepare{Target: shallow})
	net.RunFor(200 * time.Millisecond)

	// Deep target: first approved, then revoked.
	var deepApprove, deepRevoke bool
	for _, m := range sent {
		if r, ok := m.(*wire.JoinPrepareResp); ok {
			if r.Approve {
				deepApprove = true
			} else {
				deepRevoke = true
			}
		}
	}
	if !deepApprove || !deepRevoke {
		t.Errorf("deep target: approve=%v revoke=%v, want both", deepApprove, deepRevoke)
	}
	var shallowApproved bool
	for _, m := range shallowGot {
		if r, ok := m.(*wire.JoinPrepareResp); ok && r.Approve {
			shallowApproved = true
		}
	}
	if !shallowApproved {
		t.Error("shallow target not approved")
	}
	// A third, deeper prepare while the shallow one is pending: rejected.
	var thirdGot []wire.Message
	thirdEp, _ := net.Endpoint("third")
	thirdEp.SetHandler(func(_ string, data []byte) {
		m, _ := wire.Decode(data)
		thirdGot = append(thirdGot, m)
	})
	o.handleJoinPrepare("third", &wire.JoinPrepare{Target: wire.NodeInfo{Addr: "third", Code: bitstr.MustParse("111")}})
	net.RunFor(200 * time.Millisecond)
	if len(thirdGot) != 1 {
		t.Fatalf("third target got %d messages", len(thirdGot))
	}
	if r, ok := thirdGot[0].(*wire.JoinPrepareResp); !ok || r.Approve {
		t.Error("deeper concurrent prepare was not rejected")
	}
}

func TestLivenessProbe(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 43, DefaultLatency: 5 * time.Millisecond})
	nodes := newCluster(t, net, 8, testConfig())
	joinAll(t, net, nodes, true)
	net.RunFor(2 * time.Second)

	// Ask about a live node from across the overlay.
	suspect := nodes[7].ov.Info()
	var reply *bool
	nodes[1].ov.ProbeLiveness(suspect, func(alive bool) { reply = &alive })
	net.RunFor(5 * time.Second)
	if reply == nil || !*reply {
		t.Fatalf("live suspect reported dead or no reply (reply=%v)", reply)
	}

	// Kill it, wait for its neighbors to notice, ask again.
	net.Kill(nodes[7].name)
	net.RunFor(10 * time.Second)
	var reply2 *bool
	nodes[1].ov.ProbeLiveness(suspect, func(alive bool) { reply2 = &alive })
	net.RunFor(5 * time.Second)
	if reply2 != nil && *reply2 {
		t.Fatal("dead suspect reported alive")
	}
}

func TestJoinRejectWhenBusy(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 47})
	nodes := newCluster(t, net, 1, testConfig())
	o := nodes[0].ov
	o.Bootstrap()
	// Fake an in-progress split.
	o.mu.Lock()
	o.split = &splitState{joinerAddr: "other", waiting: map[string]bool{"x": true}}
	o.mu.Unlock()

	ep, _ := net.Endpoint("joiner")
	var got wire.Message
	ep.SetHandler(func(_ string, data []byte) { got, _ = wire.Decode(data) })
	o.handleJoinRequest("joiner", &wire.JoinRequest{ReqID: 9, JoinerAddr: "joiner"})
	net.RunFor(200 * time.Millisecond)
	rej, ok := got.(*wire.JoinReject)
	if !ok || rej.ReqID != 9 {
		t.Fatalf("busy target answered %#v", got)
	}
}

func TestContactCapEviction(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 53})
	cfg := testConfig()
	cfg.MaxContactsPerLevel = 2
	nodes := newCluster(t, net, 1, cfg)
	o := nodes[0].ov
	o.Bootstrap()
	o.mu.Lock()
	o.code = bitstr.MustParse("0")
	// Same level (level 0 relative to "0"): codes starting with 1.
	o.learn(wire.NodeInfo{Addr: "a", Code: bitstr.MustParse("10")})
	o.learn(wire.NodeInfo{Addr: "b", Code: bitstr.MustParse("11")})
	o.learn(wire.NodeInfo{Addr: "c", Code: bitstr.MustParse("100")})
	n := len(o.contacts)
	o.mu.Unlock()
	if n != 2 {
		t.Fatalf("contacts = %d, want cap 2", n)
	}
}

func TestCloseStopsActivity(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 59, DefaultLatency: 5 * time.Millisecond})
	nodes := newCluster(t, net, 2, testConfig())
	joinAll(t, net, nodes, true)
	nodes[0].ov.Close()
	nodes[1].ov.Close()
	net.RunFor(time.Minute)
	if net.Pending() > 10 {
		t.Fatalf("%d events still pending after close", net.Pending())
	}
}
