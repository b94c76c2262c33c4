package hypercube

import (
	"sort"
	"time"

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
// false at a routing dead end, where the host should fall back to
// RingRecover.
func (o *Overlay) NextHop(target bitstr.Code) (addr string, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.nextHopLocked(target)
}

func (o *Overlay) nextHopLocked(target bitstr.Code) (string, bool) {
	return o.nextHopExcludingLocked(target, "")
}

// NextHopExcluding is NextHop skipping one address: the reliable request
// layer uses it to route a retransmission around the first hop the
// original attempt used, in case that contact (or the link to it) is the
// reason the ack never came.
func (o *Overlay) NextHopExcluding(target bitstr.Code, exclude string) (addr string, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.nextHopExcludingLocked(target, exclude)
}

// nextHopExcludingLocked is nextHopLocked skipping one address; liveness
// probes use it to route around the very peer under suspicion.
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

// RingRecover launches the expanding-ring scoped broadcast of §3.8 for a
// routed message that dead-ended here: successive probes with growing
// TTLs carry the stuck payload until some node with a strictly better
// prefix match (or outright ownership) resumes forwarding it.
func (o *Overlay) RingRecover(target bitstr.Code, payload []byte) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.probeSeq++
	// Probe ids must be globally unique; mix in the address hash.
	id := o.probeSeq<<20 ^ hashString(o.ep.Addr())
	origin := wire.NodeInfo{Addr: o.ep.Addr(), Code: o.code}
	match := uint8(o.code.CommonPrefixLen(target))
	ttls := o.cfg.RingTTLs
	o.mu.Unlock()

	if len(ttls) == 0 {
		return
	}
	send := func(ring int, ttl uint8) {
		o.broadcastProbe(&wire.RingProbe{
			ProbeID:  id,
			Origin:   origin,
			Target:   target,
			MatchLen: match,
			TTL:      ttl,
			Ring:     uint8(ring),
			Payload:  payload,
		})
	}
	send(0, ttls[0])
	for i, ttl := range ttls[1:] {
		ring, ttl := i+1, ttl
		o.clock.AfterFunc(time.Duration(ring)*o.cfg.RingTimeout, func() {
			// A RingResumed notification marks the probe id; escalation
			// stops once someone picked the payload up.
			o.mu.Lock()
			resumed := o.seenProbes[id]
			o.mu.Unlock()
			if !resumed {
				send(ring, ttl)
			}
		})
	}
}

func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h &^ (0xfffff) // leave room for the sequence bits
}

func (o *Overlay) broadcastProbe(p *wire.RingProbe) {
	o.mu.Lock()
	var peers []string
	for addr := range o.contacts {
		peers = append(peers, addr)
	}
	o.mu.Unlock()
	sort.Strings(peers)
	for _, addr := range peers {
		o.send(addr, p)
	}
}

// handleRingProbe either resumes the stuck message (strictly better
// match than the probe origin) or re-broadcasts within the TTL. Each
// node acts on a given (probe id, ring) at most once — the dedup must be
// per ring, not per id, or a wider escalation round would die at the
// first-round neighbors and the ring could never expand. A node that
// resumes notifies the origin (RingResumed), which stops escalating.
func (o *Overlay) handleRingProbe(_ string, m *wire.RingProbe) {
	o.mu.Lock()
	if m.Origin.Addr == o.ep.Addr() {
		// Our own probe echoed back by a neighbor's rebroadcast; acting on
		// it would mark the probe id and falsely suppress escalation.
		o.mu.Unlock()
		return
	}
	ringKey := m.ProbeID ^ (uint64(m.Ring+1) * 0x9e3779b97f4a7c15)
	if o.seenProbes[ringKey] || !o.joined {
		o.mu.Unlock()
		return
	}
	o.seenProbes[ringKey] = true
	// Resuming once per probe id is enough, however many rounds reach us.
	resumedBefore := o.seenProbes[m.ProbeID]
	if len(o.seenProbes) > 65536 {
		// Crude bound; ids are random enough that clearing is safe.
		o.seenProbes = map[uint64]bool{ringKey: true}
		resumedBefore = false
	}
	myMatch := o.code.CommonPrefixLen(m.Target)
	better := myMatch > int(m.MatchLen) || o.ownsLocked(m.Target)
	o.mu.Unlock()

	if !better && o.cb.CanResume != nil && o.cb.CanResume(m.Target) {
		better = true
	}
	if better {
		if resumedBefore {
			return
		}
		o.mu.Lock()
		o.seenProbes[m.ProbeID] = true
		o.mu.Unlock()
		o.send(m.Origin.Addr, &wire.RingResumed{ProbeID: m.ProbeID})
		if o.cb.OnResume != nil {
			o.cb.OnResume(m.Origin.Addr, m.Payload)
		}
		return
	}
	if m.TTL > 1 {
		fwd := *m
		fwd.TTL--
		o.broadcastProbe(&fwd)
	}
}

// handleRingResumed records at the origin that a probe's payload was
// picked up, suppressing further TTL escalation.
func (o *Overlay) handleRingResumed(m *wire.RingResumed) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seenProbes[m.ProbeID] = true
}

// probeHopLocked picks where to send a liveness probe about a suspect:
// a strictly-better greedy hop toward the suspect's code if one exists,
// otherwise the best-matching reachable contact other than the suspect
// (and the sender) — the probe must leave this node even when the only
// greedy exit IS the suspect, e.g. when probing one's own sibling. The
// probe's hop cap bounds any resulting wandering.
func (o *Overlay) probeHopLocked(target bitstr.Code, suspectAddr, fromAddr string) (string, bool) {
	if next, ok := o.nextHopExcludingLocked(target, suspectAddr); ok && next != fromAddr {
		return next, true
	}
	bestAddr := ""
	bestMatch := -1
	for _, c := range o.contacts {
		if c.unreachable || c.info.Addr == suspectAddr || c.info.Addr == fromAddr {
			continue
		}
		// Ties break by address: the scan runs in map order, and the pick
		// must not depend on it (same-seed simnet reproducibility).
		if m := c.info.Code.CommonPrefixLen(target); m > bestMatch ||
			(m == bestMatch && c.info.Addr < bestAddr) {
			bestMatch, bestAddr = m, c.info.Addr
		}
	}
	return bestAddr, bestAddr != ""
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
