package hypercube

import (
	"sort"

	"mind/internal/bitstr"
	"mind/internal/wire"
)

// Join starts the join protocol against a seed node already in the
// overlay. The protocol follows Adler et al. as adapted by the paper
// (§3.3): sample a node by routing a random code, pick the shallowest
// node in the sampled neighborhood, ask it to split. Concurrent joins to
// the same neighborhood serialize via optimistic prepare/commit with
// shallower targets preempting deeper uncommitted ones (Fig 4).
// Completion is reported through Callbacks.OnJoined; rejections and
// timeouts retry automatically with backoff.
func (o *Overlay) Join(seed string) {
	o.mu.Lock()
	if o.joined || o.joining != nil {
		o.mu.Unlock()
		return
	}
	o.joining = &joinAttempt{seeds: []string{seed}}
	o.mu.Unlock()
	o.joinLookup()
}

// joinLookup (re)starts the sampling phase.
func (o *Overlay) joinLookup() {
	o.mu.Lock()
	if o.joined || o.joining == nil || o.closed {
		o.mu.Unlock()
		return
	}
	j := o.joining
	j.attempt++
	j.reqID = uint64(j.attempt)<<32 | uint64(o.rng.Uint32())
	target := bitstr.New(o.rng.Uint64()>>(64-lookupDepth), lookupDepth)
	// Rotate through the seed list across attempts: a post-step-down
	// rejoin must not spin forever on a winner that died before the
	// rejoin completed.
	seed := j.seeds[(j.attempt-1)%len(j.seeds)]
	reqID := j.reqID
	if j.timer != nil {
		j.timer.Stop()
	}
	j.timer = o.clock.AfterFunc(o.cfg.JoinTimeout, o.joinRetry)
	o.mu.Unlock()

	o.send(seed, &wire.JoinLookup{
		ReqID:      reqID,
		JoinerAddr: o.ep.Addr(),
		Target:     target,
	})
}

// joinRetry restarts the join after a timeout or rejection.
func (o *Overlay) joinRetry() {
	o.mu.Lock()
	if o.joined || o.joining == nil || o.closed {
		o.mu.Unlock()
		return
	}
	j := o.joining
	if j.timer != nil {
		j.timer.Stop()
	}
	j.timer = o.clock.AfterFunc(o.cfg.JoinRetryBackoff, o.joinLookup)
	o.mu.Unlock()
}

// handleJoinLookup greedy-routes the lookup toward its random target; the
// owner (or the closest node at a dead end) answers with its
// neighborhood.
func (o *Overlay) handleJoinLookup(_ string, m *wire.JoinLookup) {
	o.mu.Lock()
	if !o.joined {
		o.mu.Unlock()
		return
	}
	if !o.ownsLocked(m.Target) && m.Hops < 64 {
		if next, ok := o.nextHopLocked(m.Target); ok {
			o.mu.Unlock()
			fwd := *m
			fwd.Hops++
			o.send(next, &fwd)
			return
		}
		// Dead end: answer from here; the sample is still useful.
	}
	resp := &wire.JoinLookupResp{
		ReqID: m.ReqID,
		Self:  wire.NodeInfo{Addr: o.ep.Addr(), Code: o.code},
	}
	for _, c := range o.contacts {
		resp.Neighbors = append(resp.Neighbors, c.info)
	}
	sort.Slice(resp.Neighbors, func(i, j int) bool { return resp.Neighbors[i].Addr < resp.Neighbors[j].Addr })
	o.mu.Unlock()
	o.send(m.JoinerAddr, resp)
}

// handleJoinLookupResp picks the shallowest node in the sampled
// neighborhood and asks it to split. Lookups are also used by joined
// nodes to repair empty neighbor levels (ReqID 0); those responses just
// refresh the contact table.
func (o *Overlay) handleJoinLookupResp(m *wire.JoinLookupResp) {
	o.mu.Lock()
	if o.joined {
		o.learn(m.Self)
		for _, ni := range m.Neighbors {
			o.learnGossip(ni)
		}
		o.mu.Unlock()
		return
	}
	j := o.joining
	if j == nil || j.reqID != m.ReqID {
		o.mu.Unlock()
		return
	}
	best := m.Self
	for _, n := range m.Neighbors {
		if n.Code.Len() < best.Code.Len() ||
			(n.Code.Len() == best.Code.Len() && n.Code.Less(best.Code)) {
			best = n
		}
	}
	reqID := j.reqID
	if j.timer != nil {
		j.timer.Stop()
	}
	j.timer = o.clock.AfterFunc(o.cfg.JoinTimeout, o.joinRetry)
	o.mu.Unlock()

	o.send(best.Addr, &wire.JoinRequest{ReqID: reqID, JoinerAddr: o.ep.Addr()})
}

// handleJoinRequest is the split-target side: optimistically accept and
// run the prepare phase across the neighborhood.
func (o *Overlay) handleJoinRequest(_ string, m *wire.JoinRequest) {
	o.mu.Lock()
	if !o.joined || o.split != nil || o.code.Len() >= bitstr.MaxLen {
		o.mu.Unlock()
		o.send(m.JoinerAddr, &wire.JoinReject{ReqID: m.ReqID, Reason: "busy"})
		return
	}
	s := &splitState{
		reqID:      m.ReqID,
		joinerAddr: m.JoinerAddr,
		waiting:    make(map[string]bool),
	}
	for addr := range o.contacts {
		s.waiting[addr] = true
	}
	o.split = s
	self := wire.NodeInfo{Addr: o.ep.Addr(), Code: o.code}
	var peers []string
	for addr := range s.waiting {
		peers = append(peers, addr)
	}
	if len(peers) == 0 {
		// Sole node (or no live contacts): commit immediately.
		o.mu.Unlock()
		o.commitSplit()
		return
	}
	s.timer = o.clock.AfterFunc(o.cfg.PrepareTimeout, o.abortSplit)
	o.mu.Unlock()

	sort.Strings(peers)
	for _, addr := range peers {
		o.send(addr, &wire.JoinPrepare{Target: self})
	}
}

// handleJoinPrepare is the approver side. The deadlock-freedom rule: an
// uncommitted pending prepare from a deeper target is preempted by a
// shallower one; the preempted target gets a revocation and aborts.
func (o *Overlay) handleJoinPrepare(from string, m *wire.JoinPrepare) {
	o.mu.Lock()
	self := wire.NodeInfo{Addr: o.ep.Addr(), Code: o.code}
	// A pending prepare whose commit or abort never arrived (lost
	// message, evicted contact) must not block this neighborhood
	// forever.
	if p := o.pending; p != nil && o.clock.Now().Sub(p.at) > 2*o.cfg.PrepareTimeout {
		o.pending = nil
	}
	if p := o.pending; p != nil && p.target.Addr != m.Target.Addr {
		if m.Target.Code.Len() < p.target.Code.Len() {
			// Preempt the deeper pending target.
			revoked := p.target
			o.pending = &pendingPrepare{target: m.Target, at: o.clock.Now()}
			o.mu.Unlock()
			o.send(revoked.Addr, &wire.JoinPrepareResp{From: self, TargetCode: revoked.Code, Approve: false})
			o.send(from, &wire.JoinPrepareResp{From: self, TargetCode: m.Target.Code, Approve: true})
			return
		}
		o.mu.Unlock()
		o.send(from, &wire.JoinPrepareResp{From: self, TargetCode: m.Target.Code, Approve: false})
		return
	}
	o.pending = &pendingPrepare{target: m.Target, at: o.clock.Now()}
	o.mu.Unlock()
	o.send(from, &wire.JoinPrepareResp{From: self, TargetCode: m.Target.Code, Approve: true})
}

// handleJoinPrepareResp gathers approvals on the split-target side.
func (o *Overlay) handleJoinPrepareResp(m *wire.JoinPrepareResp) {
	o.mu.Lock()
	s := o.split
	if s == nil || !m.TargetCode.Equal(o.code) {
		o.mu.Unlock()
		return
	}
	if !m.Approve {
		o.mu.Unlock()
		o.abortSplit()
		return
	}
	delete(s.waiting, m.From.Addr)
	done := len(s.waiting) == 0
	o.mu.Unlock()
	if done {
		o.commitSplit()
	}
}

// abortSplit cancels an uncommitted split: clear neighbor pendings and
// bounce the joiner.
func (o *Overlay) abortSplit() {
	o.mu.Lock()
	s := o.split
	if s == nil {
		o.mu.Unlock()
		return
	}
	o.split = nil
	if s.timer != nil {
		s.timer.Stop()
	}
	self := wire.NodeInfo{Addr: o.ep.Addr(), Code: o.code}
	var peers []string
	for addr := range o.contacts {
		peers = append(peers, addr)
	}
	o.mu.Unlock()

	sort.Strings(peers)
	for _, addr := range peers {
		o.send(addr, &wire.JoinAbort{Target: self})
	}
	o.send(s.joinerAddr, &wire.JoinReject{ReqID: s.reqID, Reason: "preempted"})
}

func (o *Overlay) handleJoinAbort(m *wire.JoinAbort) {
	o.mu.Lock()
	if p := o.pending; p != nil && p.target.Addr == m.Target.Addr {
		o.pending = nil
	}
	o.mu.Unlock()
}

// commitSplit finalizes a join on the target side: deepen our code,
// admit the joiner as our sibling, inform the neighborhood.
func (o *Overlay) commitSplit() {
	o.mu.Lock()
	s := o.split
	if s == nil {
		o.mu.Unlock()
		return
	}
	o.split = nil
	if s.timer != nil {
		s.timer.Stop()
	}
	oldCode := o.code
	o.code = oldCode.Append(0)
	// A committed split is a membership change: bump the fencing epoch
	// and hand it to the joiner, so both halves of the new region outrank
	// any stale claim on the old one.
	o.epoch++
	o.repairAttempts = make(map[int]int)
	joinerCode := oldCode.Append(1)
	joiner := wire.NodeInfo{Addr: s.joinerAddr, Code: joinerCode}
	selfNew := wire.NodeInfo{Addr: o.ep.Addr(), Code: o.code}

	accept := &wire.JoinAccept{
		ReqID:   s.reqID,
		NewCode: joinerCode,
		Sibling: selfNew,
		Epoch:   o.epoch,
	}
	var peers []string
	for addr, c := range o.contacts {
		accept.Neighbors = append(accept.Neighbors, c.info)
		peers = append(peers, addr)
	}
	sort.Strings(peers)
	sort.Slice(accept.Neighbors, func(i, j int) bool { return accept.Neighbors[i].Addr < accept.Neighbors[j].Addr })
	o.learn(joiner)
	o.mu.Unlock()

	if o.cb.IndexDefs != nil {
		accept.Indices = o.cb.IndexDefs()
	}
	o.send(s.joinerAddr, accept)
	commit := &wire.JoinCommit{OldCode: oldCode, Target: selfNew, Joiner: joiner}
	for _, addr := range peers {
		o.send(addr, commit)
	}
	if o.cb.OnSplit != nil {
		o.cb.OnSplit(oldCode, o.code, joiner)
	}
}

// handleJoinAccept completes the join on the joiner side.
func (o *Overlay) handleJoinAccept(m *wire.JoinAccept) {
	o.mu.Lock()
	j := o.joining
	if o.joined || j == nil || j.reqID != m.ReqID {
		o.mu.Unlock()
		return
	}
	if j.timer != nil {
		j.timer.Stop()
	}
	o.joining = nil
	o.joined = true
	o.code = m.NewCode
	if m.Epoch > o.epoch {
		o.epoch = m.Epoch
	}
	o.repairAttempts = make(map[int]int)
	o.learn(m.Sibling)
	for _, n := range m.Neighbors {
		o.learnGossip(n)
	}
	// A rejoin after a step-down already has a live heartbeat chain
	// (heartbeatTick reschedules itself while unjoined); starting a
	// second one would double the heartbeat rate forever.
	if !o.hbRunning {
		o.scheduleHeartbeatLocked()
	}
	self := wire.NodeInfo{Addr: o.ep.Addr(), Code: o.code}
	now := o.clock.Now()
	var peers []string
	for addr, c := range o.contacts {
		if o.heartbeatDueLocked(c, now) {
			peers = append(peers, addr)
		}
	}
	o.mu.Unlock()

	// Announce ourselves to the inherited neighborhood immediately. The
	// peer list came out of the contact map in iteration order; sends
	// draw jitter from the simulator's seeded RNG, so the order must be
	// deterministic for same-seed runs to be bit-identical.
	sort.Strings(peers)
	for _, addr := range peers {
		o.send(addr, &wire.Heartbeat{From: self})
	}
	if o.cb.OnJoined != nil {
		o.cb.OnJoined(m)
	}
}

func (o *Overlay) handleJoinReject(m *wire.JoinReject) {
	o.mu.Lock()
	j := o.joining
	ok := !o.joined && j != nil && j.reqID == m.ReqID
	o.mu.Unlock()
	if ok {
		o.joinRetry()
	}
}

// handleJoinCommit updates the neighborhood after a committed split.
func (o *Overlay) handleJoinCommit(m *wire.JoinCommit) {
	o.mu.Lock()
	if p := o.pending; p != nil && p.target.Addr == m.Target.Addr {
		o.pending = nil
	}
	o.learn(m.Target) // the commit's sender
	o.learnGossip(m.Joiner)
	o.mu.Unlock()
}
