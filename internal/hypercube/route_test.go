package hypercube

import (
	"testing"
	"time"

	"mind/internal/bitstr"
	"mind/internal/transport/simnet"
	"mind/internal/wire"
)

// frozenOverlay hand-builds joined overlays with the given codes and no
// contacts (no heartbeats, no joins); link then adds contacts, so each
// test fixes exactly what every node knows.
func frozenOverlay(t *testing.T, codes map[string]string) (map[string]*Overlay, func(a, b string)) {
	t.Helper()
	net := simnet.New(simnet.Config{Seed: 73, DefaultLatency: 5 * time.Millisecond})
	nodes := make(map[string]*Overlay, len(codes))
	for name, code := range codes {
		ep, err := net.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		o := New(ep, net.Clock(), testConfig(), 1, Callbacks{})
		o.joined, o.code = true, bitstr.MustParse(code)
		nodes[name] = o
	}
	link := func(a, b string) {
		now := net.Clock().Now()
		nodes[a].contacts[b] = &contact{info: wire.NodeInfo{Addr: b, Code: nodes[b].code}, lastSeen: now}
		nodes[b].contacts[a] = &contact{info: wire.NodeInfo{Addr: a, Code: nodes[a].code}, lastSeen: now}
	}
	return nodes, link
}

// walk carries a message from start toward target the way the host
// does: every node that does not own the target asks Route for the next
// hop, passing the hop count and the contact the message arrived from.
// It returns the nodes visited, how many hops were detours, and whether
// the message was dropped (no hop left) rather than delivered.
func walk(t *testing.T, nodes map[string]*Overlay, start string, target bitstr.Code) (path []string, detours int, dropped bool) {
	t.Helper()
	cur, from := start, ""
	for hops := 0; ; hops++ {
		path = append(path, cur)
		if nodes[cur].Owns(target) {
			return path, detours, false
		}
		if hops > 2*maxDetourHops+bitstr.MaxLen {
			t.Fatalf("message still travelling after %d hops: %v", hops, path)
		}
		next, detour := nodes[cur].Route(target, hops, from, "")
		if next == "" {
			return path, detours, true
		}
		if detour {
			detours++
		}
		cur, from = next, cur
	}
}

// TestRouteDetourReachesOwner: the only contact making greedy progress
// toward the target is unreachable, so the message detours through the
// closest live contacts — never back the way it came — until greedy
// routing resumes and delivers it to the owner.
func TestRouteDetourReachesOwner(t *testing.T) {
	nodes, link := frozenOverlay(t, map[string]string{
		"ra": "000", "rb": "001", "rc": "01", "rd": "1",
	})
	link("ra", "rb")
	link("rb", "rc")
	link("rc", "rd")
	link("ra", "rd")
	nodes["ra"].contacts["rd"].unreachable = true

	target := bitstr.MustParse("1")
	if next, ok := nodes["ra"].NextHop(target); ok {
		t.Fatalf("ra has greedy hop %s; the test needs a dead end", next)
	}
	path, detours, dropped := walk(t, nodes, "ra", target)
	if dropped || path[len(path)-1] != "rd" {
		t.Fatalf("path %v dropped=%v, want delivery at rd", path, dropped)
	}
	if want := []string{"ra", "rb", "rc", "rd"}; len(path) != len(want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	// ra and rb detour; rc reaches rd greedily.
	if detours != 2 {
		t.Fatalf("%d detours on path %v, want 2", detours, path)
	}
}

// TestRouteDeadRegionStopsAtCap: a message for a region no live node
// holds detours among the live nodes until it has travelled
// maxDetourHops hops, then is dropped — the host counts it — instead of
// circling for ever.
func TestRouteDeadRegionStopsAtCap(t *testing.T) {
	nodes, link := frozenOverlay(t, map[string]string{
		"ra": "000", "rb": "001", "rc": "010", "rd": "011", "dead": "1",
	})
	for _, a := range []string{"ra", "rb", "rc", "rd"} {
		for _, b := range []string{"ra", "rb", "rc", "rd", "dead"} {
			if a < b || b == "dead" {
				link(a, b)
			}
		}
		nodes[a].contacts["dead"].unreachable = true
	}
	for _, start := range []string{"ra", "rb", "rc", "rd"} {
		path, detours, gone := walk(t, nodes, start, bitstr.MustParse("1"))
		if !gone {
			t.Fatalf("from %s: delivered along %v to a dead region", start, path)
		}
		if hops := len(path) - 1; hops != maxDetourHops || detours != maxDetourHops {
			t.Fatalf("from %s: dropped after %d hops (%d detours), want %d of each: %v",
				start, hops, detours, maxDetourHops, path)
		}
		for i := 2; i < len(path); i++ {
			if path[i] == path[i-2] {
				t.Fatalf("from %s: hop %d turned back to %s: %v", start, i, path[i], path)
			}
		}
	}
}
