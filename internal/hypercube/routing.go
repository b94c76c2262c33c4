package hypercube

import (
	"mind/internal/bitstr"
	"mind/internal/wire"
)

// Owns reports whether this node is responsible for the target code: its
// own code and the target are in a prefix relation. For point targets
// deeper than the node's code this means "the target falls inside my
// region"; for coarse targets it means "my region is inside the
// target's" (the host then decomposes further).
func (o *Overlay) Owns(target bitstr.Code) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.ownsLocked(target)
}

func (o *Overlay) ownsLocked(target bitstr.Code) bool {
	return o.code.IsPrefixOf(target) || target.IsPrefixOf(o.code)
}

// NextHop picks the greedy next hop toward the target: the contact whose
// code shares the longest prefix with the target, provided it improves
// strictly on our own match (greedy hypercube routing, §3.5). ok is
// false at a routing dead end.
func (o *Overlay) NextHop(target bitstr.Code) (addr string, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.nextHopLocked(target)
}

func (o *Overlay) nextHopLocked(target bitstr.Code) (string, bool) {
	return o.nextHopExcludingLocked(target, "")
}

// nextHopExcludingLocked is nextHopLocked skipping one address.
func (o *Overlay) nextHopExcludingLocked(target bitstr.Code, exclude string) (string, bool) {
	own := o.code.CommonPrefixLen(target)
	bestMatch := own
	bestAddr := ""
	bestLen := 0
	for _, c := range o.contacts {
		if c.info.Addr == exclude || c.unreachable {
			continue
		}
		m := c.info.Code.CommonPrefixLen(target)
		if m <= own {
			// Strict improvement over our own match is required for
			// greedy progress.
			continue
		}
		// Among equal improvements prefer the shallower contact: it owns
		// a larger share of the target's region, and ties broken by
		// address keep the choice deterministic.
		if m > bestMatch ||
			(m == bestMatch && c.info.Code.Len() < bestLen) ||
			(m == bestMatch && c.info.Code.Len() == bestLen && c.info.Addr < bestAddr) {
			bestMatch, bestAddr, bestLen = m, c.info.Addr, c.info.Code.Len()
		}
	}
	return bestAddr, bestAddr != ""
}

// closestLocked is the way out of a greedy dead end: the reachable
// contact sharing the longest prefix with the target, skipping the two
// given addresses, with no strict improvement on our own match required.
// Routed messages detour through it (Route), liveness probes wander
// through it (probeHopLocked) and repair lookups relay through it. Ties
// break by address: the scan runs in map order, and the pick must not
// depend on it (same-seed simnet reproducibility).
func (o *Overlay) closestLocked(target bitstr.Code, skip1, skip2 string) string {
	bestAddr := ""
	bestMatch := -1
	for _, c := range o.contacts {
		if c.unreachable || c.info.Addr == skip1 || c.info.Addr == skip2 {
			continue
		}
		if m := c.info.Code.CommonPrefixLen(target); m > bestMatch ||
			(m == bestMatch && c.info.Addr < bestAddr) {
			bestMatch, bestAddr = m, c.info.Addr
		}
	}
	return bestAddr
}

// maxDetourHops bounds detours: a routed message that has travelled this
// many hops takes no further one. Greedy hops strictly lengthen the match
// with the target, so only detours can loop, and past the cap at most one
// greedy chain follows. 16 is about twice the code length of a 102-node
// overlay: a message that dead-ends at the end of a full greedy path
// keeps as many hops again for its detour, and one circling a region no
// live node holds costs at most that many frames before its operation's
// retry takes over.
const maxDetourHops = 16

// Route is the one forwarding rule for every routed message (§3.5, §3.8):
// the greedy hop (NextHop), avoiding avoid while another greedy exit
// exists, unless that hop turns the message back to from, the contact it
// arrived from ("" at its originator). Otherwise the message is at a dead
// end and detours to the closest reachable contact other than from
// (closestLocked), provided it has travelled fewer than maxDetourHops
// hops; greedy routing resumes from there. next is "" when no hop
// exists: the host drops the message and counts it, and the operation's
// retry resends it. detour reports that there is no greedy hop, so the
// host may serve the message itself instead (replica fail-over).
func (o *Overlay) Route(target bitstr.Code, hops int, from, avoid string) (next string, detour bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	next, ok := o.nextHopExcludingLocked(target, avoid)
	if !ok && avoid != "" {
		next, ok = o.nextHopLocked(target)
	}
	if ok && next != from {
		return next, false
	}
	if hops >= maxDetourHops {
		return "", true
	}
	return o.closestLocked(target, from, ""), true
}

// probeHopLocked picks where to send a liveness probe about a suspect:
// a strictly-better greedy hop toward the suspect's code if one exists,
// otherwise the closest reachable contact other than the suspect (and
// the sender) — the probe must leave this node even when the only
// greedy exit IS the suspect, e.g. when probing one's own sibling. The
// probe's hop cap bounds any resulting wandering.
func (o *Overlay) probeHopLocked(target bitstr.Code, suspectAddr, fromAddr string) (string, bool) {
	if next, ok := o.nextHopExcludingLocked(target, suspectAddr); ok && next != fromAddr {
		return next, true
	}
	next := o.closestLocked(target, suspectAddr, fromAddr)
	return next, next != ""
}

// ProbeLiveness routes a liveness probe toward a suspect peer's code;
// any node that has heard from the suspect recently replies alive to the
// asker (§3.8: distinguishing a flaky link from a dead peer). The reply,
// if any, arrives via onReply.
func (o *Overlay) ProbeLiveness(suspect wire.NodeInfo, onReply func(alive bool)) {
	o.mu.Lock()
	o.livenessSeq++
	id := o.livenessSeq<<20 ^ hashString(o.ep.Addr())
	o.livenessWait[id] = onReply
	self := wire.NodeInfo{Addr: o.ep.Addr(), Code: o.code}
	next, ok := o.probeHopLocked(suspect.Code, suspect.Addr, "")
	o.mu.Unlock()
	if !ok {
		return
	}
	o.send(next, &wire.LivenessProbe{ReqID: id, Asker: self, Suspect: suspect})
}

// hashString mixes an address into a request id; the low 20 bits are
// left for a per-node sequence number.
func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h &^ (0xfffff)
}

func (o *Overlay) handleLivenessProbe(from string, m *wire.LivenessProbe) {
	o.mu.Lock()
	joined := o.joined
	o.mu.Unlock()
	if !joined {
		// Same rule as heartbeats: a restarted, not-yet-joined process on
		// a dead node's address must not attest its predecessor's
		// liveness (ghost identity).
		return
	}
	if m.Suspect.Addr == o.ep.Addr() {
		// The probe reached the suspect itself: the most direct
		// attestation possible.
		o.send(m.Asker.Addr, &wire.LivenessReply{ReqID: m.ReqID, Alive: true})
		return
	}
	o.mu.Lock()
	if c, ok := o.contacts[m.Suspect.Addr]; ok && o.clock.Now().Sub(c.lastSeen) <= o.cfg.FailAfter {
		// Fresh first-hand knowledge: attest. A stale entry is not
		// evidence of death — keep routing toward nodes closer to the
		// suspect.
		o.mu.Unlock()
		o.send(m.Asker.Addr, &wire.LivenessReply{ReqID: m.ReqID, Alive: true})
		return
	}
	if m.Hops >= 32 {
		o.mu.Unlock()
		o.send(m.Asker.Addr, &wire.LivenessReply{ReqID: m.ReqID, Alive: false})
		return
	}
	next, ok := o.probeHopLocked(m.Suspect.Code, m.Suspect.Addr, from)
	o.mu.Unlock()
	if !ok {
		o.send(m.Asker.Addr, &wire.LivenessReply{ReqID: m.ReqID, Alive: false})
		return
	}
	fwd := *m
	fwd.Hops++
	o.send(next, &fwd)
}

func (o *Overlay) handleLivenessReply(m *wire.LivenessReply) {
	o.mu.Lock()
	cb := o.livenessWait[m.ReqID]
	delete(o.livenessWait, m.ReqID)
	o.mu.Unlock()
	if cb != nil {
		cb(m.Alive)
	}
}
