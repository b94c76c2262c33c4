// Package hypercube implements MIND's overlay: node codes forming the
// leaves of a binary partition of the code space, the modified Adler
// join protocol with deadlock-free serialization of concurrent joins
// (§3.3, Fig 4), greedy longest-prefix hypercube routing (§3.5),
// expanding-ring recovery from routing dead-ends, heartbeat-based
// failure detection and sibling takeover (§3.8).
//
// An Overlay is one node's view of the hypercube. It owns the join and
// maintenance message kinds; routed data messages belong to the host
// (the mind node), which uses Owns/NextHop/RingRecover to move them.
package hypercube

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"mind/internal/bitstr"
	"mind/internal/transport"
	"mind/internal/wire"
)

// Callbacks let the host react to overlay events. All callbacks are
// invoked without the overlay lock held and may call back into the
// overlay. Any callback may be nil.
type Callbacks struct {
	// OnJoined fires when this node's join completes; the accept message
	// carries the index definitions to install.
	OnJoined func(accept *wire.JoinAccept)
	// OnSplit fires on the split-target side after a committed join:
	// this node's code deepened from oldCode to newCode and the joiner
	// now owns the sibling region.
	OnSplit func(oldCode, newCode bitstr.Code, joiner wire.NodeInfo)
	// OnTakeover fires after this node shortened its code to absorb a
	// dead sibling region.
	OnTakeover func(dead, oldCode bitstr.Code)
	// OnResume re-injects a routed message recovered by an
	// expanding-ring probe, exactly as if it had just arrived.
	OnResume func(from string, payload []byte)
	// CanResume lets the host volunteer to resume a probed message even
	// without a better prefix match — e.g. because it holds replicas
	// covering the target region (§3.8 fail-over).
	CanResume func(target bitstr.Code) bool
	// OnContactDead fires when a contact is declared failed.
	OnContactDead func(info wire.NodeInfo)
	// OnContactMoved fires (from the heartbeat tick, at most one tick
	// after the observation) when a contact is seen claiming a
	// different code than before, or enters the table fresh: the peer
	// may have relocated or rejoined after a step-down. Hosts holding
	// per-peer state keyed to a code (e.g. §3.4 history pointers)
	// revalidate it here — fresh entries are included because a peer
	// can be evicted under its old code and only reappear after the
	// move, so a strict change-only signal would miss it.
	OnContactMoved func(info wire.NodeInfo)
	// OnRegionDead fires when a takeover names a region's code as dead
	// — a code-level death notice, reaching even hosts that no longer
	// track the dead node as a contact (OnContactDead cannot reach
	// those). Hosts clear per-region delegations (§3.4 history
	// pointers) aimed into the region.
	OnRegionDead func(dead bitstr.Code)
	// IndexDefs supplies the current index definitions included in join
	// accepts.
	IndexDefs func() []wire.IndexDef
	// VersionDigest supplies the host's current tree-version digest,
	// carried on heartbeats and acks so peers can detect version skew
	// without extra round trips (anti-entropy for missed HistInstall
	// floods). Zero means "all indices at base version".
	VersionDigest func() uint64
	// OnVersionSkew fires when a heartbeat exchange reveals a peer whose
	// version digest differs from ours. The host decides who is behind
	// (via a TreeSync exchange); the overlay only reports the mismatch.
	OnVersionSkew func(peer wire.NodeInfo)
	// OnStepDown fires when this node lost an ownership dispute after a
	// healed split-brain and is about to rejoin through the winner. The
	// host should arrange to re-insert the primary records it holds for
	// regions it no longer owns once the rejoin completes (OnJoined).
	OnStepDown func(winner wire.NodeInfo)
}

type contact struct {
	info     wire.NodeInfo
	lastSeen time.Time
	// probing marks a silent contact whose liveness is being checked via
	// an overlay-routed probe before it is declared failed (§3.8: a
	// flaky link is not a dead peer).
	probing   bool
	suspectAt time.Time
	// unreachable marks a contact we cannot reach directly (no ack past
	// FailAfter) even though it may still be alive: routing skips it
	// while reconnection attempts continue (§3.8's transient-link
	// handling).
	unreachable bool
	// attestedAt is when a liveness probe last vouched for this contact.
	// Attestation defers the death declaration but is second-hand: it
	// never counts as first-hand contact (lastSeen), or circular
	// attestation chains would keep dead nodes "alive" forever.
	attestedAt time.Time
}

// Overlay is one node's overlay state machine. All exported methods are
// safe for concurrent use.
type Overlay struct {
	mu    sync.Mutex
	ep    transport.Endpoint
	clock transport.Clock
	cfg   Config
	cb    Callbacks
	rng   *rand.Rand

	joined bool
	code   bitstr.Code
	// epoch is the monotonic membership-fencing epoch (§3.8 hardening):
	// bumped on bootstrap, committed splits, takeovers, relocations and
	// every death declaration, and adopted (max) from join accepts. Two
	// primaries claiming overlapping regions after a healed partition
	// resolve the dispute deterministically: higher epoch wins, lower
	// address breaks ties.
	epoch uint64

	contacts map[string]*contact
	// estranged records peers this node itself declared dead, so that a
	// heal after a long partition actually reconnects the fenced halves:
	// without it two disjoint overlays would never exchange another
	// message and the split-brain would persist silently. Entries are
	// heartbeat-probed every tick until direct traffic resurrects the
	// peer or the TTL expires.
	estranged map[string]estrangedEntry
	// probeMuted rate-limits collision probes per disputed address: every
	// heartbeat from a conflicting peer re-detects the same dispute.
	probeMuted map[string]time.Time
	// hintMuted rate-limits third-party collision hints per claimant
	// pair. Disputes between two equal-code primaries are invisible to
	// the pair itself — equal-code nodes are never each other's
	// contacts, so they never heartbeat — and only a bystander that
	// hears from both can connect them.
	hintMuted map[string]time.Time
	// moved queues contacts observed under a changed code since the
	// last heartbeat tick; the tick drains it into OnContactMoved.
	moved []wire.NodeInfo
	recon ReconStats

	joining *joinAttempt
	split   *splitState
	pending *pendingPrepare

	hbTimer   transport.Timer
	hbSeq     uint64
	hbRunning bool
	closed    bool
	// repairAttempts counts consecutive failed level-repair lookups per
	// neighbor level; persistent emptiness despite repair is the
	// evidence that the level's whole region is dead.
	repairAttempts map[int]int
	// tombstones records when this node itself declared an address dead.
	// While a tombstone is fresh, gossip may not re-add the address:
	// other nodes keep echoing their own stale entry for the corpse until
	// they too declare it, and each echo would otherwise restart our full
	// detect-probe-declare cycle — delaying region-death corroboration
	// (and hence §3.8 relocation) almost indefinitely. Direct traffic
	// from the address (a genuine restart) clears the tombstone at once.
	tombstones map[string]time.Time

	seenProbes   map[uint64]bool
	probeSeq     uint64
	livenessSeq  uint64
	livenessWait map[uint64]func(alive bool)
}

type joinAttempt struct {
	reqID uint64
	// seeds are tried round-robin across attempts. A plain Join has one;
	// a post-step-down rejoin lists the dispute winner first and the
	// previous contact table as fallbacks, so a winner that dies before
	// the rejoin completes does not strand the loser in a retry loop.
	seeds   []string
	timer   transport.Timer
	attempt int
}

type estrangedEntry struct {
	info wire.NodeInfo
	at   time.Time
}

// ReconStats counts split-brain reconciliation events.
type ReconStats struct {
	// CollisionsDetected counts (rate-limited) observations of a peer
	// claiming a code equal to or prefix-related with our own.
	CollisionsDetected uint64
	// CollisionsWon counts disputes this node won (the peer steps down).
	CollisionsWon uint64
	// CollisionsLost counts disputes this node lost.
	CollisionsLost uint64
	// StepDowns counts times this node left the overlay to rejoin through
	// a dispute winner.
	StepDowns uint64
}

type splitState struct {
	reqID      uint64
	joinerAddr string
	waiting    map[string]bool // contact addrs yet to approve
	timer      transport.Timer
}

type pendingPrepare struct {
	target wire.NodeInfo
	at     time.Time
}

// New creates an overlay bound to the endpoint and clock. The returned
// overlay is idle: call Bootstrap to found a new hypercube or Join to
// enter an existing one. The host must route incoming overlay-kind
// messages to Handle.
func New(ep transport.Endpoint, clock transport.Clock, cfg Config, seed int64, cb Callbacks) *Overlay {
	return &Overlay{
		ep:             ep,
		clock:          clock,
		cfg:            cfg,
		cb:             cb,
		rng:            rand.New(rand.NewSource(seed)),
		contacts:       make(map[string]*contact),
		seenProbes:     make(map[uint64]bool),
		livenessWait:   make(map[uint64]func(bool)),
		repairAttempts: make(map[int]int),
		tombstones:     make(map[string]time.Time),
		estranged:      make(map[string]estrangedEntry),
		probeMuted:     make(map[string]time.Time),
		hintMuted:      make(map[string]time.Time),
	}
}

// Bootstrap makes this node the first node of a new hypercube, owning
// the whole code space with the empty code.
func (o *Overlay) Bootstrap() {
	o.mu.Lock()
	o.joined = true
	o.code = bitstr.Empty
	o.epoch = 1
	o.mu.Unlock()
	o.startHeartbeats()
}

// Epoch returns the node's current membership-fencing epoch.
func (o *Overlay) Epoch() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.epoch
}

// Code returns the node's current overlay code.
func (o *Overlay) Code() bitstr.Code {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.code
}

// Joined reports whether the node is part of the overlay.
func (o *Overlay) Joined() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.joined
}

// Addr returns the node's transport address.
func (o *Overlay) Addr() string { return o.ep.Addr() }

// Info returns the node's identity.
func (o *Overlay) Info() wire.NodeInfo {
	o.mu.Lock()
	defer o.mu.Unlock()
	return wire.NodeInfo{Addr: o.ep.Addr(), Code: o.code}
}

// Contacts returns a snapshot of all known contacts.
func (o *Overlay) Contacts() []wire.NodeInfo {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]wire.NodeInfo, 0, len(o.contacts))
	for _, c := range o.contacts {
		out = append(out, c.info)
	}
	return out
}

// Close stops timers; the overlay becomes inert.
func (o *Overlay) Close() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.closed = true
	if o.hbTimer != nil {
		o.hbTimer.Stop()
	}
	if o.joining != nil && o.joining.timer != nil {
		o.joining.timer.Stop()
	}
	if o.split != nil && o.split.timer != nil {
		o.split.timer.Stop()
	}
}

// send encodes and transmits a message, ignoring transport errors (the
// protocol layers recover via retries and heartbeats).
func (o *Overlay) send(to string, m wire.Message) {
	_ = o.ep.Send(to, wire.Encode(m))
}

// learn records or refreshes a contact from a message the node itself
// sent — direct traffic, so it counts as liveness evidence. Callers hold
// o.mu. Contacts in a prefix relation with our own code (transient
// takeover states) are kept for liveness tracking but naturally drop out
// of routing. Per-level contact counts are capped; the freshest contacts
// win.
func (o *Overlay) learn(info wire.NodeInfo) {
	o.learnContact(info, true)
}

// learnGossip records a contact carried as third-party information
// (neighborhood lists in join lookups/accepts, the joiner in a commit
// notice). Gossip may introduce unknown contacts and refresh codes, but
// it must NOT advance lastSeen of an existing entry: lookup responses
// echo stale entries for dead peers, and treating the echo as liveness
// lets one node keep a corpse perpetually "fresh" — it then attests
// every liveness probe for the dead peer and no node ever declares the
// death, so the takeover that would re-cover the region never fires.
func (o *Overlay) learnGossip(info wire.NodeInfo) {
	o.learnContact(info, false)
}

func (o *Overlay) learnContact(info wire.NodeInfo, direct bool) {
	if info.Addr == "" || info.Addr == o.ep.Addr() {
		return
	}
	now := o.clock.Now()
	if direct {
		delete(o.tombstones, info.Addr)
		delete(o.estranged, info.Addr)
	} else if ts, ok := o.tombstones[info.Addr]; ok {
		if now.Sub(ts) < 4*o.cfg.FailAfter {
			return
		}
		delete(o.tombstones, info.Addr)
	}
	if c, ok := o.contacts[info.Addr]; ok {
		if !c.info.Code.Equal(info.Code) {
			o.moved = append(o.moved, info)
		}
		c.info = info
		if direct {
			c.lastSeen = now
		}
		return
	}
	// Enforce the per-level cap by evicting the stalest same-level
	// contact if necessary.
	lvl := o.levelOf(info.Code)
	var same []*contact
	for _, c := range o.contacts {
		if o.levelOf(c.info.Code) == lvl {
			same = append(same, c)
		}
	}
	if len(same) >= o.cfg.MaxContactsPerLevel {
		// `same` was collected in map order; equal lastSeen stamps are
		// routine under the virtual clock, so break the tie by address or
		// the surviving contact SET itself becomes run-dependent.
		stalest := same[0]
		for _, c := range same[1:] {
			if c.lastSeen.Before(stalest.lastSeen) ||
				(c.lastSeen.Equal(stalest.lastSeen) && c.info.Addr < stalest.info.Addr) {
				stalest = c
			}
		}
		delete(o.contacts, stalest.info.Addr)
	}
	o.moved = append(o.moved, info)
	o.contacts[info.Addr] = &contact{info: info, lastSeen: now}
}

// repairRelayLocked picks a reachable contact to carry a repair lookup
// that cannot make greedy progress from here, choosing deterministically:
// longest common prefix with the target, then lowest address.
func (o *Overlay) repairRelayLocked(target bitstr.Code) string {
	best := ""
	bestCPL := -1
	for addr, c := range o.contacts {
		if c.unreachable {
			continue
		}
		cpl := c.info.Code.CommonPrefixLen(target)
		if cpl > bestCPL || (cpl == bestCPL && (best == "" || addr < best)) {
			best, bestCPL = addr, cpl
		}
	}
	return best
}

// touch refreshes a contact's liveness on any inbound traffic.
func (o *Overlay) touch(addr string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if c, ok := o.contacts[addr]; ok {
		c.lastSeen = o.clock.Now()
		c.unreachable = false
		c.probing = false
	}
}

// SuspectContact feeds external evidence of trouble — e.g. the reliable
// request layer exhausting retransmissions through a contact — into the
// failure machinery: the contact is suspended from routing and a
// liveness probe is launched immediately, instead of waiting for the
// heartbeat sweep to notice the silence on its own. The normal probe
// window then either attests the contact alive (flaky link: it stays
// suspended but undead) or declares it dead. Suspecting an unknown
// address is a no-op.
func (o *Overlay) SuspectContact(addr string) {
	o.mu.Lock()
	if o.closed || !o.joined {
		o.mu.Unlock()
		return
	}
	c, ok := o.contacts[addr]
	if !ok || c.probing {
		o.mu.Unlock()
		return
	}
	c.probing = true
	c.unreachable = true
	c.suspectAt = o.clock.Now()
	info := c.info
	o.mu.Unlock()

	o.ProbeLiveness(info, func(alive bool) {
		o.mu.Lock()
		if c, ok := o.contacts[info.Addr]; ok && alive {
			c.attestedAt = o.clock.Now()
		}
		o.mu.Unlock()
	})
}

// levelOf returns the neighbor level (dimension) of a code relative to
// our own: the length of the common prefix. Callers hold o.mu.
func (o *Overlay) levelOf(c bitstr.Code) int {
	return o.code.CommonPrefixLen(c)
}

// --- Heartbeats and failure handling -------------------------------------

func (o *Overlay) startHeartbeats() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.scheduleHeartbeatLocked()
}

func (o *Overlay) scheduleHeartbeatLocked() {
	if o.closed || o.cfg.HeartbeatInterval <= 0 {
		return
	}
	o.hbRunning = true
	o.hbTimer = o.clock.AfterFunc(o.cfg.HeartbeatInterval, o.heartbeatTick)
}

// heartbeatTick sends heartbeats to all contacts and sweeps for failed
// ones. A contact that has been silent past FailAfter is first probed
// for liveness through the overlay (another node may still reach it even
// if our direct link is down); only a negative or absent probe reply
// declares it dead (§3.8).
func (o *Overlay) heartbeatTick() {
	var digest uint64
	if o.cb.VersionDigest != nil {
		digest = o.cb.VersionDigest()
	}
	o.mu.Lock()
	if o.closed || !o.joined {
		o.scheduleHeartbeatLocked()
		o.mu.Unlock()
		return
	}
	o.hbSeq++
	self := wire.NodeInfo{Addr: o.ep.Addr(), Code: o.code}
	now := o.clock.Now()
	var targets []string
	var dead []wire.NodeInfo
	var probe []wire.NodeInfo
	for addr, c := range o.contacts {
		silent := now.Sub(c.lastSeen)
		switch {
		case silent <= o.cfg.FailAfter:
			c.probing = false
			c.unreachable = false
			targets = append(targets, addr)
		case !c.probing:
			// Direct silence past FailAfter: stop routing through this
			// contact and check with its other neighbors whether it is
			// dead or merely unreachable from here.
			c.probing = true
			c.unreachable = true
			c.suspectAt = now
			probe = append(probe, c.info)
			targets = append(targets, addr) // keep attempting reconnection
		case now.Sub(c.suspectAt) > o.cfg.FailAfter && c.attestedAt.Before(c.suspectAt):
			// Probe window elapsed and no attestation arrived within it:
			// dead. Bump the fencing epoch — takeovers and relocations
			// derived from this declaration carry the bumped epoch, so if
			// the "dead" peer was merely partitioned away the side that
			// reorganized outranks the side that idled. Remember the
			// corpse as estranged: should the partition heal, the probes
			// reconnect the halves and trigger reconciliation.
			dead = append(dead, c.info)
			delete(o.contacts, addr)
			o.tombstones[addr] = now
			o.epoch++
			o.estranged[addr] = estrangedEntry{info: c.info, at: now}
		case now.Sub(c.suspectAt) > o.cfg.FailAfter:
			// Attested alive during this window: restart the probe
			// cycle; if the attestations dry up, a later window declares
			// it dead.
			c.probing = false
			targets = append(targets, addr)
		default:
			targets = append(targets, addr)
		}
	}
	// Overlay repair: a neighbor level with no contacts left (all died)
	// would make every route through that dimension dead-end. Route a
	// lookup into the missing level's subtree; the responder (and its
	// neighborhood) refills the level. A level that stays empty through
	// several repair rounds is evidence that its whole region is dead —
	// which triggers the §3.8 takeover rules for the sibling and uncle
	// regions.
	for addr, ts := range o.tombstones {
		if now.Sub(ts) >= 4*o.cfg.FailAfter {
			delete(o.tombstones, addr)
		}
	}
	// Keep probing estranged peers: a genuinely dead node ignores the
	// heartbeats until the TTL writes it off, but a partitioned-away peer
	// answers after the heal, re-entering the contact table (direct
	// traffic) and surfacing any code collision for reconciliation.
	var estrangedTargets []string
	for addr, e := range o.estranged {
		if now.Sub(e.at) > o.cfg.estrangedTTL() {
			delete(o.estranged, addr)
			continue
		}
		if _, ok := o.contacts[addr]; ok {
			continue
		}
		estrangedTargets = append(estrangedTargets, addr)
	}
	for addr, ts := range o.probeMuted {
		if now.Sub(ts) >= 8*o.cfg.HeartbeatInterval {
			delete(o.probeMuted, addr)
		}
	}
	for pair, ts := range o.hintMuted {
		if now.Sub(ts) >= 8*o.cfg.HeartbeatInterval {
			delete(o.hintMuted, pair)
		}
	}
	type repairReq struct {
		target bitstr.Code
		relay  string
	}
	var repair []repairReq
	var deadSibling, deadUncle bool
	uncleLevel := -1
	if o.code.Len() > 0 {
		levelsAlive := make([]bool, o.code.Len())
		for _, c := range o.contacts {
			l := o.levelOf(c.info.Code)
			if l < len(levelsAlive) {
				levelsAlive[l] = true
			}
		}
		for i, alive := range levelsAlive {
			if alive {
				o.repairAttempts[i] = 0
				continue
			}
			o.repairAttempts[i]++
			t := o.code.NeighborCode(i)
			for t.Len() < o.cfg.LookupDepth && t.Len() < bitstr.MaxLen {
				t = t.Append(int(o.rng.Uint64() & 1))
			}
			req := repairReq{target: t}
			if _, ok := o.nextHopLocked(t); !ok {
				// The hole blocks its own repair: with the level empty we
				// hold no contact making greedy progress toward the missing
				// subtree, so dispatching the lookup locally would dead-end
				// at self and "answer" with the very table that has the
				// hole. Relay through the closest live contact instead; its
				// table spans levels ours does not, so one non-greedy hop
				// breaks the deadlock.
				req.relay = o.repairRelayLocked(t)
			}
			repair = append(repair, req)
		}
		if o.repairAttempts[o.code.Len()-1] >= 4 {
			deadSibling = true
		} else {
			for i := o.code.Len() - 2; i >= 0; i-- {
				if o.repairAttempts[i] >= 4 {
					deadUncle = true
					uncleLevel = i
					break
				}
			}
		}
	}
	sibCode := bitstr.Empty
	uncleCode := bitstr.Empty
	if deadSibling {
		sibCode = o.code.Sibling()
		o.repairAttempts = make(map[int]int)
	} else if deadUncle {
		uncleCode = o.code.NeighborCode(uncleLevel)
		o.repairAttempts = make(map[int]int)
	}
	seq := o.hbSeq
	o.scheduleHeartbeatLocked()
	moved := o.moved
	o.moved = nil
	o.mu.Unlock()

	// Append order of `moved` is message-processing order — already
	// deterministic under the simulated network.
	if o.cb.OnContactMoved != nil {
		for _, m := range moved {
			o.cb.OnContactMoved(m)
		}
	}

	// The slices above were collected in map-iteration order; sends
	// consume the simulator's seeded RNG (loss, jitter), so their order
	// must be deterministic for same-seed runs to be bit-identical.
	sort.Strings(targets)
	sort.Strings(estrangedTargets)
	sort.Slice(probe, func(i, j int) bool { return probe[i].Addr < probe[j].Addr })
	sort.Slice(dead, func(i, j int) bool { return dead[i].Addr < dead[j].Addr })

	if deadSibling {
		o.maybeTakeover(wire.NodeInfo{Code: sibCode})
	} else if deadUncle {
		o.maybeRelocate(wire.NodeInfo{Code: uncleCode})
	}

	for _, addr := range targets {
		o.send(addr, &wire.Heartbeat{From: self, Seq: seq, VerDigest: digest})
	}
	for _, addr := range estrangedTargets {
		o.send(addr, &wire.Heartbeat{From: self, Seq: seq, VerDigest: digest})
	}
	for _, r := range repair {
		lk := &wire.JoinLookup{JoinerAddr: o.ep.Addr(), Target: r.target}
		if r.relay != "" {
			o.send(r.relay, lk)
		} else {
			o.handleJoinLookup(o.ep.Addr(), lk)
		}
	}
	for _, s := range probe {
		s := s
		o.ProbeLiveness(s, func(alive bool) {
			o.mu.Lock()
			c, ok := o.contacts[s.Addr]
			if ok && alive {
				// Someone with first-hand knowledge can still reach it:
				// not dead, just a flaky link. Defer the death verdict
				// (second-hand — lastSeen stays untouched) and keep it
				// suspended from routing; reconnection continues.
				c.attestedAt = o.clock.Now()
			}
			o.mu.Unlock()
		})
	}
	for _, d := range dead {
		o.contactFailed(d)
	}
}

// contactFailed processes a declared-dead contact: notify the host and
// apply the direct-sibling takeover rule of §3.8. The recursive rule
// (relocating into a dead ancestor-sibling region) is deliberately NOT
// triggered here: one death only proves that contact dead, while
// relocation claims an entire region is empty — a claim this node's
// possibly-stale contact table cannot support on its own. (A table whose
// region entries happen to all be dead would relocate into a region
// that still has live inhabitants the table never learned, minting a
// duplicate code that nothing ever resolves.) Relocation waits for the
// corroborated path in heartbeatTick: four consecutive repair rounds,
// each routing a lookup into the region through a live relay, all
// failing to surface a single inhabitant.
func (o *Overlay) contactFailed(dead wire.NodeInfo) {
	if o.cb.OnContactDead != nil {
		o.cb.OnContactDead(dead)
	}
	o.maybeTakeover(dead)
}

// maybeTakeover shortens our code if the dead node was the last known
// inhabitant of our sibling region; it reports whether a takeover
// happened. Recursive collapses happen naturally as further failures are
// detected.
func (o *Overlay) maybeTakeover(dead wire.NodeInfo) bool {
	o.mu.Lock()
	if !o.joined || o.code.IsEmpty() {
		o.mu.Unlock()
		return false
	}
	sib := o.code.Sibling()
	if !sib.IsPrefixOf(dead.Code) {
		o.mu.Unlock()
		return false
	}
	// Another live inhabitant of the sibling region blocks takeover.
	for _, c := range o.contacts {
		if sib.IsPrefixOf(c.info.Code) {
			o.mu.Unlock()
			return false
		}
	}
	oldCode := o.code
	o.code = o.code.Parent()
	o.epoch++
	epoch := o.epoch
	o.repairAttempts = make(map[int]int)
	self := wire.NodeInfo{Addr: o.ep.Addr(), Code: o.code}
	var peers []string
	for addr := range o.contacts {
		peers = append(peers, addr)
	}
	o.mu.Unlock()

	sort.Strings(peers)
	for _, addr := range peers {
		o.send(addr, &wire.Takeover{From: self, OldCode: oldCode, Dead: dead.Code, Epoch: epoch, DeadAddr: dead.Addr})
	}
	if o.cb.OnTakeover != nil {
		o.cb.OnTakeover(sib, oldCode)
	}
	return true
}

// maybeRelocate implements the recursive rule for dead subtrees (§3.8:
// "if both a node and its sibling fail, then a node in the sibling
// sub-tree takes over", applied recursively): when an ancestor-sibling
// region of our code (the region across dimension i, below our direct
// sibling level) has no live inhabitants, one node from the surviving
// side relocates — adopts the dead region's code — and leaves its old
// region to its direct sibling, who absorbs it through the normal rule
// upon seeing the relocation announcement.
//
// Exactly one node qualifies as the relocator for a given dead region:
// the one whose code continues past the branch dimension with all 1
// bits (the rightmost leaf of the surviving side), provided its direct
// sibling region is alive to absorb its old region. Uniqueness prevents
// two nodes adopting the same code concurrently.
func (o *Overlay) maybeRelocate(dead wire.NodeInfo) {
	o.mu.Lock()
	if !o.joined || o.code.Len() < 2 {
		o.mu.Unlock()
		return
	}
	i := o.code.CommonPrefixLen(dead.Code)
	if i >= o.code.Len()-1 || i >= dead.Code.Len() {
		// The direct-sibling dimension belongs to the normal takeover
		// rule; prefix-related codes are inconsistent input.
		o.mu.Unlock()
		return
	}
	region := o.code.NeighborCode(i)
	// Relocator uniqueness: every bit after the branch dimension is 1.
	for b := i + 1; b < o.code.Len(); b++ {
		if o.code.Bit(b) != 1 {
			o.mu.Unlock()
			return
		}
	}
	sib := o.code.Sibling()
	regionAlive, sibAlive := false, false
	for _, c := range o.contacts {
		if region.IsPrefixOf(c.info.Code) {
			regionAlive = true
		}
		if sib.IsPrefixOf(c.info.Code) {
			sibAlive = true
		}
	}
	if regionAlive || !sibAlive {
		o.mu.Unlock()
		return
	}
	oldCode := o.code
	o.code = region
	o.epoch++
	epoch := o.epoch
	o.repairAttempts = make(map[int]int)
	self := wire.NodeInfo{Addr: o.ep.Addr(), Code: o.code}
	var peers []string
	for addr := range o.contacts {
		peers = append(peers, addr)
	}
	o.mu.Unlock()

	sort.Strings(peers)
	for _, addr := range peers {
		o.send(addr, &wire.Takeover{From: self, OldCode: oldCode, Dead: dead.Code, Epoch: epoch, DeadAddr: dead.Addr})
	}
	if o.cb.OnTakeover != nil {
		o.cb.OnTakeover(region, oldCode)
	}
}

// Handle dispatches an overlay-kind message. It reports whether the
// message kind belongs to the overlay (false means the host should
// process it).
func (o *Overlay) Handle(from string, m wire.Message) bool {
	o.touch(from)
	switch msg := m.(type) {
	case *wire.JoinLookup:
		o.handleJoinLookup(from, msg)
	case *wire.JoinLookupResp:
		o.handleJoinLookupResp(msg)
	case *wire.JoinRequest:
		o.handleJoinRequest(from, msg)
	case *wire.JoinPrepare:
		o.handleJoinPrepare(from, msg)
	case *wire.JoinPrepareResp:
		o.handleJoinPrepareResp(msg)
	case *wire.JoinAbort:
		o.handleJoinAbort(msg)
	case *wire.JoinAccept:
		o.handleJoinAccept(msg)
	case *wire.JoinReject:
		o.handleJoinReject(msg)
	case *wire.JoinCommit:
		o.handleJoinCommit(msg)
	case *wire.Heartbeat:
		o.handleHeartbeat(from, msg)
	case *wire.HeartbeatAck:
		o.handleHeartbeatAck(msg)
	case *wire.Takeover:
		o.handleTakeover(msg)
	case *wire.CollisionProbe:
		o.handleCollisionProbe(msg)
	case *wire.CollisionReply:
		o.handleCollisionReply(msg)
	case *wire.CollisionHint:
		o.handleCollisionHint(msg)
	case *wire.RingProbe:
		o.handleRingProbe(from, msg)
	case *wire.LivenessProbe:
		o.handleLivenessProbe(from, msg)
	case *wire.LivenessReply:
		o.handleLivenessReply(msg)
	case *wire.RingResumed:
		o.handleRingResumed(msg)
	default:
		return false
	}
	return true
}

func (o *Overlay) handleHeartbeat(from string, m *wire.Heartbeat) {
	o.mu.Lock()
	// An unjoined node must not attest: a restarted process listening on
	// a dead node's address would otherwise ack heartbeats meant for its
	// predecessor, keeping the ghost identity perpetually "fresh" (its
	// death is never declared) and poisoning the sender's contact table
	// with the joiner's pre-join code.
	if !o.joined {
		o.mu.Unlock()
		return
	}
	probe, probeEpoch := o.collisionCheckLocked(m.From)
	hints := o.collisionHintsLocked(m.From)
	o.learn(m.From)
	self := wire.NodeInfo{Addr: o.ep.Addr(), Code: o.code}
	o.mu.Unlock()
	digest := o.versionDigest()
	if digest != m.VerDigest && o.cb.OnVersionSkew != nil {
		o.cb.OnVersionSkew(m.From)
	}
	o.send(from, &wire.HeartbeatAck{From: self, Seq: m.Seq, VerDigest: digest})
	if probe {
		o.send(m.From.Addr, &wire.CollisionProbe{From: self, Epoch: probeEpoch})
	}
	for _, h := range hints {
		o.send(h.to, &wire.CollisionHint{Peer: h.peer})
	}
}

func (o *Overlay) handleHeartbeatAck(m *wire.HeartbeatAck) {
	o.mu.Lock()
	if !o.joined {
		o.mu.Unlock()
		return
	}
	probe, probeEpoch := o.collisionCheckLocked(m.From)
	hints := o.collisionHintsLocked(m.From)
	o.learn(m.From)
	self := wire.NodeInfo{Addr: o.ep.Addr(), Code: o.code}
	o.mu.Unlock()
	if o.versionDigest() != m.VerDigest && o.cb.OnVersionSkew != nil {
		o.cb.OnVersionSkew(m.From)
	}
	if probe {
		o.send(m.From.Addr, &wire.CollisionProbe{From: self, Epoch: probeEpoch})
	}
	for _, h := range hints {
		o.send(h.to, &wire.CollisionHint{Peer: h.peer})
	}
}

// versionDigest invokes the host's digest callback without the lock held.
func (o *Overlay) versionDigest() uint64 {
	if o.cb.VersionDigest == nil {
		return 0
	}
	return o.cb.VersionDigest()
}

// codesConflict reports whether two codes dispute ownership: equal codes
// claim the same region, prefix-related codes claim nested regions. A
// prefix-free code set never conflicts; two fenced primaries after a
// healed partition do.
func codesConflict(a, b bitstr.Code) bool {
	return a.IsPrefixOf(b) || b.IsPrefixOf(a)
}

// collisionCheckLocked inspects a peer's self-reported code for an
// ownership conflict with our own and decides (rate-limited per address)
// whether to launch a collision probe. Callers hold o.mu and must send
// the probe after unlocking, stamped with the returned epoch.
func (o *Overlay) collisionCheckLocked(peer wire.NodeInfo) (bool, uint64) {
	if !o.joined || peer.Addr == "" || peer.Addr == o.ep.Addr() {
		return false, 0
	}
	if !codesConflict(o.code, peer.Code) {
		return false, 0
	}
	now := o.clock.Now()
	if t, ok := o.probeMuted[peer.Addr]; ok && now.Sub(t) < o.cfg.HeartbeatInterval {
		return false, 0
	}
	o.probeMuted[peer.Addr] = now
	o.recon.CollisionsDetected++
	return true, o.epoch
}

// hintSend is a deferred CollisionHint: tell `to` that `peer` claims a
// code conflicting with its own.
type hintSend struct {
	to   string
	peer wire.NodeInfo
}

// collisionHintsLocked is third-party dispute detection. Pairwise
// collision checks only ever compare our own code against a heartbeat
// sender's, but the two claimants of a disputed region may never talk:
// two fenced primaries with the *same* code are never each other's
// contacts, so neither ever heartbeats the other and the dispute
// persists indefinitely. A bystander that knows one claimant as a
// contact and hears a conflicting code from the other must introduce
// them. Callers hold o.mu and send the returned hints after unlocking;
// each receiver verifies the conflict itself and opens the normal
// probe/reply exchange.
func (o *Overlay) collisionHintsLocked(peer wire.NodeInfo) []hintSend {
	if !o.joined || peer.Addr == "" || peer.Addr == o.ep.Addr() {
		return nil
	}
	var addrs []string
	for addr, c := range o.contacts {
		if addr == peer.Addr || addr == o.ep.Addr() {
			continue
		}
		if codesConflict(c.info.Code, peer.Code) {
			addrs = append(addrs, addr)
		}
	}
	if len(addrs) == 0 {
		return nil
	}
	sort.Strings(addrs)
	now := o.clock.Now()
	var hints []hintSend
	for _, addr := range addrs {
		pair := addr + "|" + peer.Addr
		if addr > peer.Addr {
			pair = peer.Addr + "|" + addr
		}
		if t, ok := o.hintMuted[pair]; ok && now.Sub(t) < o.cfg.HeartbeatInterval {
			continue
		}
		o.hintMuted[pair] = now
		hints = append(hints,
			hintSend{to: addr, peer: peer},
			hintSend{to: peer.Addr, peer: o.contacts[addr].info})
	}
	return hints
}

// handleCollisionHint acts on a bystander's introduction: if the named
// peer's code really conflicts with ours, open the standard collision
// probe exchange with it. A stale or malicious hint fails the local
// conflict check and is dropped.
func (o *Overlay) handleCollisionHint(m *wire.CollisionHint) {
	o.mu.Lock()
	probe, probeEpoch := o.collisionCheckLocked(m.Peer)
	self := wire.NodeInfo{Addr: o.ep.Addr(), Code: o.code}
	o.mu.Unlock()
	if probe {
		o.send(m.Peer.Addr, &wire.CollisionProbe{From: self, Epoch: probeEpoch})
	}
}

// winsDisputeLocked applies the deterministic dispute rule: higher epoch
// wins; equal epochs fall to the lower address. Both sides compute the
// same verdict from the same pair. Callers hold o.mu.
func (o *Overlay) winsDisputeLocked(peerAddr string, peerEpoch uint64) bool {
	if o.epoch != peerEpoch {
		return o.epoch > peerEpoch
	}
	return o.ep.Addr() < peerAddr
}

// handleCollisionProbe resolves an ownership dispute surfaced by a peer:
// if we win, tell the peer so it steps down; if we lose, step down
// ourselves.
func (o *Overlay) handleCollisionProbe(m *wire.CollisionProbe) {
	o.mu.Lock()
	if !o.joined || o.closed || m.From.Addr == o.ep.Addr() {
		o.mu.Unlock()
		return
	}
	if !codesConflict(o.code, m.From.Code) {
		// The dispute resolved while the probe was in flight (one side
		// already stepped down or moved).
		o.mu.Unlock()
		return
	}
	if o.winsDisputeLocked(m.From.Addr, m.Epoch) {
		o.recon.CollisionsWon++
		self := wire.NodeInfo{Addr: o.ep.Addr(), Code: o.code}
		epoch := o.epoch
		o.mu.Unlock()
		o.send(m.From.Addr, &wire.CollisionReply{From: self, Epoch: epoch})
		return
	}
	o.mu.Unlock()
	o.stepDown(m.From)
}

// handleCollisionReply is the loser side of a probe we sent: the peer
// claims to win. Re-verify with the deterministic rule (epochs may have
// moved since the probe) and step down if we indeed lose; if we compute
// a win instead, do nothing — the next probe round resolves the race
// once both epochs are stable.
func (o *Overlay) handleCollisionReply(m *wire.CollisionReply) {
	o.mu.Lock()
	if !o.joined || o.closed || m.From.Addr == o.ep.Addr() {
		o.mu.Unlock()
		return
	}
	if !codesConflict(o.code, m.From.Code) || o.winsDisputeLocked(m.From.Addr, m.Epoch) {
		o.mu.Unlock()
		return
	}
	o.mu.Unlock()
	o.stepDown(m.From)
}

// stepDown abandons this node's overlay identity after a lost ownership
// dispute: forget the fenced view entirely and rejoin through the
// winner. The host's OnStepDown callback fires before the rejoin starts
// so it can arrange to re-insert the primary records it holds for
// regions the winner now owns (it keeps serving local replicas in the
// meantime; the rejoin completes via the normal OnJoined path).
func (o *Overlay) stepDown(winner wire.NodeInfo) {
	o.mu.Lock()
	if !o.joined || o.closed {
		o.mu.Unlock()
		return
	}
	o.recon.CollisionsLost++
	o.recon.StepDowns++
	seeds := []string{winner.Addr}
	var rest []string
	for addr := range o.contacts {
		if addr != winner.Addr {
			rest = append(rest, addr)
		}
	}
	sort.Strings(rest)
	seeds = append(seeds, rest...)
	o.joined = false
	o.code = bitstr.Empty
	o.contacts = make(map[string]*contact)
	o.tombstones = make(map[string]time.Time)
	o.estranged = make(map[string]estrangedEntry)
	o.probeMuted = make(map[string]time.Time)
	o.hintMuted = make(map[string]time.Time)
	o.moved = nil
	o.repairAttempts = make(map[int]int)
	if o.split != nil && o.split.timer != nil {
		o.split.timer.Stop()
	}
	o.split = nil
	o.pending = nil
	if o.joining != nil && o.joining.timer != nil {
		o.joining.timer.Stop()
	}
	o.joining = &joinAttempt{seeds: seeds}
	o.mu.Unlock()

	if o.cb.OnStepDown != nil {
		o.cb.OnStepDown(winner)
	}
	o.joinLookup()
}

func (o *Overlay) handleTakeover(m *wire.Takeover) {
	o.mu.Lock()
	// A takeover whose new code overlaps our own is an ownership dispute:
	// the sender reorganized around a death declaration that may have
	// been us (or our subtree) on the far side of a partition. Resolve it
	// through the probe protocol rather than silently coexisting.
	probe, probeEpoch := o.collisionCheckLocked(m.From)
	// Drop any contact matching the dead code, refresh the sender.
	var dropped []wire.NodeInfo
	for addr, c := range o.contacts {
		if c.info.Code.Equal(m.Dead) && addr != m.From.Addr {
			dropped = append(dropped, c.info)
			delete(o.contacts, addr)
		}
	}
	o.learn(m.From)
	self := wire.NodeInfo{Addr: o.ep.Addr(), Code: o.code}
	o.mu.Unlock()
	// A takeover is a second-hand death notice: the host must hear about
	// the dropped contacts exactly as if this node had declared them dead
	// itself. Found by the chaos harness: a node whose split sibling was
	// declared dead by a THIRD party dropped the corpse from its contact
	// table here, never fired OnContactDead, and kept delegating §3.4
	// history coverage to the void — every query over its region timed
	// out incomplete until HistoryTTL.
	sort.Slice(dropped, func(i, j int) bool { return dropped[i].Addr < dropped[j].Addr })
	if o.cb.OnContactDead != nil {
		for _, d := range dropped {
			o.cb.OnContactDead(d)
		}
	}
	// The dead node's address travels with the flood when the declarer
	// had first-hand knowledge. Relay it even when the corpse is absent
	// from our own contact table: per-address host state can outlive the
	// contact entry (a history pointer survives the level-cap eviction of
	// its target, and the corpse's code in the flood need not match the
	// stale position the pointer tracked).
	if m.DeadAddr != "" && m.DeadAddr != o.ep.Addr() && o.cb.OnContactDead != nil {
		already := false
		for _, d := range dropped {
			if d.Addr == m.DeadAddr {
				already = true
				break
			}
		}
		if !already {
			o.cb.OnContactDead(wire.NodeInfo{Addr: m.DeadAddr, Code: m.Dead})
		}
	}
	if o.cb.OnRegionDead != nil {
		o.cb.OnRegionDead(m.Dead)
	}
	if probe {
		o.send(m.From.Addr, &wire.CollisionProbe{From: self, Epoch: probeEpoch})
	}
	// If the sender relocated AWAY from a region in our sibling subtree
	// (its new code is not an extension of the old), that region is now
	// vacated: absorb it through the normal rule.
	if !m.From.Code.IsPrefixOf(m.OldCode) {
		o.maybeTakeover(wire.NodeInfo{Addr: "", Code: m.OldCode})
	}
}
