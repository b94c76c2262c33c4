// Package simnet is a deterministic discrete-event network simulator
// implementing transport.Endpoint and transport.Clock. It stands in for
// the PlanetLab testbed of the paper's evaluation: per-link propagation
// delays come from a pluggable latency function (the topo package derives
// one from the real Abilene and GÉANT router locations), and the
// simulator additionally models the pathologies the paper observed —
// per-link serialization (queueing behind large transfers, Fig 8),
// per-node service queues (hotspots, Fig 11), random loss, link outages
// and node failures (§4.4).
//
// All event execution happens in the goroutine that calls Run/Step, in
// virtual time, so experiments are fast and bit-for-bit reproducible for
// a given seed.
package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mind/internal/transport"
)

// Config tunes the network model.
type Config struct {
	// Seed drives all randomness (jitter, loss).
	Seed int64
	// Latency returns the one-way propagation delay between two
	// endpoints. Nil means DefaultLatency for every pair.
	Latency func(from, to string) time.Duration
	// DefaultLatency applies when Latency is nil (default 20ms).
	DefaultLatency time.Duration
	// JitterFrac adds uniform random jitter in [0, JitterFrac·latency].
	JitterFrac float64
	// LossProb drops each message independently with this probability.
	LossProb float64
	// BandwidthBps serializes transmissions per directed link; 0 means
	// infinite bandwidth (no transmission delay).
	BandwidthBps float64
	// PerMsgOverheadBytes is added to each message's size for the
	// transmission-delay computation (framing, IP/TCP headers).
	PerMsgOverheadBytes int
	// ServiceTime is the receiving node's processing time per message;
	// messages queue FIFO per node. 0 disables the node-service model.
	ServiceTime time.Duration
	// TraceDelivery, when set, observes every successful delivery with
	// its send and delivery times (after link queueing, transmission,
	// propagation and node service). Called on the event loop; keep it
	// cheap.
	TraceDelivery func(from, to string, sent, delivered time.Time, bytes int)
}

func (c Config) withDefaults() Config {
	if c.DefaultLatency == 0 {
		c.DefaultLatency = 20 * time.Millisecond
	}
	if c.PerMsgOverheadBytes == 0 {
		c.PerMsgOverheadBytes = 64
	}
	return c
}

// event is one scheduled callback.
type event struct {
	at  time.Time
	seq uint64 // tiebreak for determinism
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type linkKey struct{ from, to string }

// Network is the simulated network. All methods are safe for concurrent
// use, though the intended pattern is a single driving goroutine.
type Network struct {
	mu  sync.Mutex
	cfg Config
	rng *rand.Rand

	now    time.Time
	seq    uint64
	events eventHeap

	endpoints map[string]*Endpoint
	dead      map[string]bool
	cutLinks  map[linkKey]bool      // bidirectional cuts stored both ways
	partCuts  map[linkKey]bool      // cross-group cuts owned by Partition/Heal
	outages   map[linkKey]time.Time // link down until the given time
	stalls    map[string]time.Time  // node frozen until the given time
	linkLat   map[linkKey]time.Duration
	// Reordering: with probability reorderProb a message's delivery is
	// delayed by an extra uniform draw in [0, reorderWindow], letting
	// later sends on the same link overtake it.
	reorderProb   float64
	reorderWindow time.Duration

	linkBusy map[linkKey]time.Time
	nodeBusy map[string]time.Time

	// Stats.
	sent, delivered, dropped uint64
	linkMsgs                 map[linkKey]uint64
	linkBytes                map[linkKey]uint64
}

// New creates a network starting at a fixed virtual epoch.
func New(cfg Config) *Network {
	cfg = cfg.withDefaults()
	return &Network{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		now:       time.Unix(0, 0).UTC(),
		endpoints: make(map[string]*Endpoint),
		dead:      make(map[string]bool),
		cutLinks:  make(map[linkKey]bool),
		partCuts:  make(map[linkKey]bool),
		outages:   make(map[linkKey]time.Time),
		stalls:    make(map[string]time.Time),
		linkLat:   make(map[linkKey]time.Duration),
		linkBusy:  make(map[linkKey]time.Time),
		nodeBusy:  make(map[string]time.Time),
		linkMsgs:  make(map[linkKey]uint64),
		linkBytes: make(map[linkKey]uint64),
	}
}

// Endpoint attaches a new endpoint with the given address.
func (n *Network) Endpoint(addr string) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.endpoints[addr]; ok {
		return nil, fmt.Errorf("simnet: address %q already attached", addr)
	}
	ep := &Endpoint{net: n, addr: addr}
	n.endpoints[addr] = ep
	delete(n.dead, addr)
	return ep, nil
}

// Clock returns the network's virtual clock.
func (n *Network) Clock() transport.Clock { return simClock{n} }

// Now returns the current virtual time.
func (n *Network) Now() time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.now
}

// schedule enqueues fn at time at (>= now).
func (n *Network) schedule(at time.Time, fn func()) *event {
	if at.Before(n.now) {
		at = n.now
	}
	n.seq++
	e := &event{at: at, seq: n.seq, fn: fn}
	heap.Push(&n.events, e)
	return e
}

// Step executes the next pending event; it reports whether one existed.
func (n *Network) Step() bool {
	n.mu.Lock()
	if len(n.events) == 0 {
		n.mu.Unlock()
		return false
	}
	e := heap.Pop(&n.events).(*event)
	n.now = e.at
	fn := e.fn
	n.mu.Unlock()
	if fn != nil {
		fn()
	}
	return true
}

// Run executes events until the queue drains or maxEvents fire; it
// returns the number executed. A zero maxEvents means no limit.
func (n *Network) Run(maxEvents int) int {
	count := 0
	for maxEvents == 0 || count < maxEvents {
		if !n.Step() {
			break
		}
		count++
	}
	return count
}

// RunUntil executes events until done() reports true, the queue drains,
// or maxEvents fire. It reports whether done() was satisfied.
func (n *Network) RunUntil(done func() bool, maxEvents int) bool {
	count := 0
	for !done() {
		if maxEvents != 0 && count >= maxEvents {
			return false
		}
		if !n.Step() {
			return done()
		}
		count++
	}
	return true
}

// RunFor executes events with timestamps up to now+d, advancing the
// clock to exactly now+d afterwards even if the queue drained early.
func (n *Network) RunFor(d time.Duration) {
	n.mu.Lock()
	deadline := n.now.Add(d)
	n.mu.Unlock()
	for {
		n.mu.Lock()
		if len(n.events) == 0 || n.events[0].at.After(deadline) {
			if deadline.After(n.now) {
				n.now = deadline
			}
			n.mu.Unlock()
			return
		}
		e := heap.Pop(&n.events).(*event)
		n.now = e.at
		fn := e.fn
		n.mu.Unlock()
		if fn != nil {
			fn()
		}
	}
}

// Pending returns the number of queued events.
func (n *Network) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.events)
}

// Kill marks a node dead: its deliveries stop and sends to it vanish.
func (n *Network) Kill(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dead[addr] = true
}

// Revive brings a killed node back.
func (n *Network) Revive(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.dead, addr)
}

// IsDead reports whether the address is currently marked dead.
func (n *Network) IsDead(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dead[addr]
}

// CutLink severs the link between a and b in both directions until
// RestoreLink.
func (n *Network) CutLink(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cutLinks[linkKey{a, b}] = true
	n.cutLinks[linkKey{b, a}] = true
}

// RestoreLink undoes CutLink.
func (n *Network) RestoreLink(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cutLinks, linkKey{a, b})
	delete(n.cutLinks, linkKey{b, a})
}

// SetLossProb changes the random per-message loss probability at
// runtime, so a scenario can converge losslessly and then turn
// adversarial (or vice versa).
func (n *Network) SetLossProb(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.LossProb = p
}

// Partition severs every link between a node of groupA and a node of
// groupB, in both directions, until Heal — the standard split-brain
// scenario without hand-cutting individual links. Partition cuts are
// tracked separately from CutLink cuts, so Heal does not restore links
// that were cut individually, and repeated Partition calls accumulate.
// Intra-group traffic is unaffected.
func (n *Network) Partition(groupA, groupB []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, a := range groupA {
		for _, b := range groupB {
			n.partCuts[linkKey{a, b}] = true
			n.partCuts[linkKey{b, a}] = true
		}
	}
}

// Heal removes every cut made by Partition. Links severed via CutLink
// stay down until their own RestoreLink.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partCuts = make(map[linkKey]bool)
}

// SetLinkLatency overrides the propagation delay between a and b (both
// directions) at runtime, modelling a congested or rerouted path. It
// takes precedence over the configured Latency function until
// ClearLinkLatency.
func (n *Network) SetLinkLatency(a, b string, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkLat[linkKey{a, b}] = d
	n.linkLat[linkKey{b, a}] = d
}

// ClearLinkLatency removes a SetLinkLatency override.
func (n *Network) ClearLinkLatency(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.linkLat, linkKey{a, b})
	delete(n.linkLat, linkKey{b, a})
}

// SetReorder makes each message, with probability p, arrive up to window
// later than its natural delivery time, so later sends on the same link
// can overtake it — the out-of-order delivery UDP exhibits under ECMP
// rerouting. p = 0 disables reordering and restores FIFO-per-link
// behavior; while disabled no randomness is drawn, so trajectories of
// seeded runs that never enable reordering are unaffected.
func (n *Network) SetReorder(p float64, window time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reorderProb = p
	n.reorderWindow = window
}

// Outage makes the directed links between a and b lossy (down) for the
// given duration of virtual time, modelling the transient routing
// failures of §3.8.
func (n *Network) Outage(a, b string, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	until := n.now.Add(d)
	n.outages[linkKey{a, b}] = until
	n.outages[linkKey{b, a}] = until
}

// StallNode freezes the node at addr for d of virtual time: a stalled
// process stops draining and filling its sockets, so messages to or
// from it are buffered rather than lost and deliver only once the
// stall ends — the frozen-connection behavior of a GC pause or a
// CPU-starved peer, as opposed to the packet loss of Kill or Outage.
// Overlapping stalls extend to the latest end time.
func (n *Network) StallNode(addr string, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	until := n.now.Add(d)
	if cur, ok := n.stalls[addr]; !ok || until.After(cur) {
		n.stalls[addr] = until
	}
}

// Stalled reports whether addr is currently inside a StallNode window.
func (n *Network) Stalled(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	until, ok := n.stalls[addr]
	return ok && n.now.Before(until)
}

// Stats summarizes traffic since creation.
type Stats struct {
	Sent, Delivered, Dropped uint64
}

// Stats returns aggregate counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Stats{Sent: n.sent, Delivered: n.delivered, Dropped: n.dropped}
}

// LinkTraffic reports per-directed-link message and byte counts, keyed
// by "from→to".
func (n *Network) LinkTraffic() map[string]uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]uint64, len(n.linkMsgs))
	for k, v := range n.linkMsgs {
		out[k.from+"→"+k.to] = v
	}
	return out
}

// send implements Endpoint.Send under the network lock.
func (n *Network) send(from, to string, msg []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sent++
	ep, ok := n.endpoints[to]
	if !ok {
		n.dropped++
		return fmt.Errorf("simnet: unknown peer %q", to)
	}
	if n.dead[from] {
		n.dropped++
		return fmt.Errorf("simnet: sender %q is dead", from)
	}
	lk := linkKey{from, to}
	if n.dead[to] || n.cutLinks[lk] || n.partCuts[lk] {
		// Silent loss: the sender cannot distinguish a dead peer from a
		// slow one at send time.
		n.dropped++
		return nil
	}
	if until, ok := n.outages[lk]; ok {
		if n.now.Before(until) {
			n.dropped++
			return nil
		}
		delete(n.outages, lk)
	}
	if n.cfg.LossProb > 0 && n.rng.Float64() < n.cfg.LossProb {
		n.dropped++
		return nil
	}

	// Propagation delay + jitter. A runtime per-link override beats the
	// configured latency model.
	lat := n.cfg.DefaultLatency
	if n.cfg.Latency != nil {
		lat = n.cfg.Latency(from, to)
	}
	if d, ok := n.linkLat[lk]; ok {
		lat = d
	}
	if n.cfg.JitterFrac > 0 {
		lat += time.Duration(n.rng.Float64() * n.cfg.JitterFrac * float64(lat))
	}
	if n.reorderProb > 0 && n.rng.Float64() < n.reorderProb {
		lat += time.Duration(n.rng.Float64() * float64(n.reorderWindow))
	}

	// Link serialization: messages on the same directed link queue
	// behind each other at the configured bandwidth.
	txStart := n.now
	if busy, ok := n.linkBusy[lk]; ok && busy.After(txStart) {
		txStart = busy
	}
	var txDur time.Duration
	if n.cfg.BandwidthBps > 0 {
		bits := float64(len(msg)+n.cfg.PerMsgOverheadBytes) * 8
		txDur = time.Duration(bits / n.cfg.BandwidthBps * float64(time.Second))
	}
	n.linkBusy[lk] = txStart.Add(txDur)
	arrive := txStart.Add(txDur).Add(lat)

	// Node service queue: the receiver processes messages FIFO.
	procStart := arrive
	if busy, ok := n.nodeBusy[to]; ok && busy.After(procStart) {
		procStart = busy
	}
	// A stalled endpoint neither transmits nor drains its sockets: the
	// message sits buffered and is processed once the stall ends.
	// Applying the push before the nodeBusy update keeps FIFO order, so
	// the backlog drains in sequence after the thaw.
	for _, a := range [2]string{from, to} {
		if until, ok := n.stalls[a]; ok {
			if n.now.Before(until) {
				if until.After(procStart) {
					procStart = until
				}
			} else {
				delete(n.stalls, a)
			}
		}
	}
	done := procStart.Add(n.cfg.ServiceTime)
	if n.cfg.ServiceTime > 0 {
		n.nodeBusy[to] = done
	}

	n.linkMsgs[lk]++
	n.linkBytes[lk] += uint64(len(msg))

	msgCopy := append([]byte(nil), msg...)
	sentAt := n.now
	n.schedule(done, func() {
		n.mu.Lock()
		stillAlive := !n.dead[to]
		h := ep.handler
		closed := ep.closed
		if stillAlive && !closed {
			n.delivered++
		} else {
			n.dropped++
		}
		deliveredAt := n.now
		trace := n.cfg.TraceDelivery
		n.mu.Unlock()
		if stillAlive && !closed {
			if trace != nil {
				trace(from, to, sentAt, deliveredAt, len(msgCopy))
			}
			if h != nil {
				h(from, msgCopy)
			}
		}
	})
	return nil
}

// Endpoint is one simulated node attachment.
type Endpoint struct {
	net     *Network
	addr    string
	handler transport.Handler
	closed  bool
}

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() string { return e.addr }

// SetHandler installs the receive callback.
func (e *Endpoint) SetHandler(h transport.Handler) {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	e.handler = h
}

// Send queues a message for simulated delivery.
func (e *Endpoint) Send(to string, msg []byte) error {
	e.net.mu.Lock()
	closed := e.closed
	e.net.mu.Unlock()
	if closed {
		return fmt.Errorf("simnet: endpoint %q closed", e.addr)
	}
	return e.net.send(e.addr, to, msg)
}

// Close detaches the endpoint.
func (e *Endpoint) Close() error {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	e.closed = true
	delete(e.net.endpoints, e.addr)
	return nil
}

var _ transport.Endpoint = (*Endpoint)(nil)

// simClock implements transport.Clock on the network's virtual time.
type simClock struct{ n *Network }

func (c simClock) Now() time.Time { return c.n.Now() }

func (c simClock) AfterFunc(d time.Duration, f func()) transport.Timer {
	c.n.mu.Lock()
	defer c.n.mu.Unlock()
	t := &simTimer{f: f}
	c.n.schedule(c.n.now.Add(d), func() {
		if f := t.take(); f != nil {
			f()
		}
	})
	return t
}

// simTimer holds its callback only while it can still run: the event of
// a stopped timer stays queued until its time comes, and must not keep
// alive what the callback references (time.Timer.Stop drops it at once).
type simTimer struct {
	mu sync.Mutex
	f  func() // nil once fired or stopped
}

func (t *simTimer) take() func() {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.f
	t.f = nil
	return f
}

func (t *simTimer) Stop() bool { return t.take() != nil }
