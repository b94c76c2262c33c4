package tcpnet

import (
	"bufio"
	"net"
	"sort"
	"sync"
	"time"

	"mind/internal/metrics"
)

// PeerState is the lifecycle state of one managed outbound connection.
//
//	Dialing:  no connection yet; the writer will dial on the next frame.
//	Healthy:  connected, last write succeeded.
//	Degraded: the connection failed (write error/timeout or dial failure)
//	          and the peer is between reconnect attempts.
//	Dead:     FailThreshold consecutive failures; Send reports an error
//	          (circuit open) while the writer keeps probing at the
//	          backoff cap, so a revived peer is re-admitted.
type PeerState int32

// Peer lifecycle states.
const (
	StateDialing PeerState = iota
	StateHealthy
	StateDegraded
	StateDead
)

func (s PeerState) String() string {
	switch s {
	case StateDialing:
		return "dialing"
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateDead:
		return "dead"
	}
	return "unknown"
}

// PeerStats is the externally visible state of one managed peer.
type PeerStats struct {
	Addr       string `json:"addr"`
	State      string `json:"state"`
	QueueLen   int    `json:"queue_len"`
	QueueCap   int    `json:"queue_cap"`
	Dials      uint64 `json:"dials"`
	Reconnects uint64 `json:"reconnects"` // successful re-dials after a failure
	FramesSent uint64 `json:"frames_sent"`
	BytesSent  uint64 `json:"bytes_sent"`
	// Drops, by cause. The transport is allowed to lose frames (the
	// protocol layer above owns retries); these counters make the loss
	// observable instead of silent.
	DropsQueueFull uint64    `json:"drops_queue_full"` // slow peer: bounded queue overflowed
	DropsBackoff   uint64    `json:"drops_backoff"`    // dropped while waiting out reconnect backoff
	DropsWrite     uint64    `json:"drops_write"`      // write failed mid-frame
	WriteTimeouts  uint64    `json:"write_timeouts"`   // write deadline expired (stalled peer evicted)
	Evictions      uint64    `json:"evictions"`        // connections closed due to failure/timeout
	ConsecFails    int       `json:"consec_fails"`
	LastStateSince time.Time `json:"state_since"`
}

// peer is one managed outbound connection with its writer goroutine.
// Send enqueues; the writer owns dialing, deadlines, and the connection
// itself, so a stalled peer can never block a sender for longer than it
// takes to enqueue (or drop) one frame.
type peer struct {
	addr string
	e    *Endpoint

	queue chan []byte
	quit  chan struct{}

	mu         sync.Mutex
	state      PeerState
	stateSince time.Time
	conn       net.Conn
	backoff    time.Duration
	nextDialAt time.Time
	consec     int

	dials          uint64
	reconnects     uint64
	framesSent     uint64
	bytesSent      uint64
	dropsQueueFull uint64
	dropsBackoff   uint64
	dropsWrite     uint64
	writeTimeouts  uint64
	evictions      uint64
}

func newPeer(e *Endpoint, addr string) *peer {
	p := &peer{
		addr:  addr,
		e:     e,
		queue: make(chan []byte, e.cfg.SendQueue),
		quit:  make(chan struct{}),
		state: StateDialing,
	}
	e.wg.Add(1)
	go p.writeLoop()
	return p
}

// State returns the peer's current lifecycle state.
func (p *peer) State() PeerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

func (p *peer) setStateLocked(s PeerState) {
	if p.state != s {
		p.state = s
		p.stateSince = time.Now()
	}
}

// enqueue hands one frame (an owned copy) to the writer. A full queue
// means the peer is slower than the offered load: the sender gets
// backpressure bounded by EnqueueTimeout — a transient burst drains
// losslessly, while a genuinely stalled peer caps every sender's wait
// and then drops the frame (counted). Dead peers never block the
// sender: the circuit is open, so the frame is dropped immediately.
func (p *peer) enqueue(buf []byte) bool {
	select {
	case p.queue <- buf:
		return true
	default:
	}
	if p.State() == StateDead {
		p.drop(buf)
		return false
	}
	t := time.NewTimer(p.e.cfg.EnqueueTimeout)
	defer t.Stop()
	select {
	case p.queue <- buf:
		return true
	case <-t.C:
	case <-p.quit:
	}
	p.drop(buf)
	return false
}

// drop counts one queue-full loss and recycles the frame's buffer.
func (p *peer) drop(buf []byte) {
	p.mu.Lock()
	p.dropsQueueFull++
	p.mu.Unlock()
	putSendBuf(buf)
}

// writeLoop drains the queue. Every frame gets at most one dial and one
// write attempt; failures drop the frame, close the connection and back
// off — the queue keeps draining, so a dead peer sheds load instead of
// accumulating it.
func (p *peer) writeLoop() {
	defer p.e.wg.Done()
	for {
		select {
		case <-p.quit:
			p.drainAndClose()
			return
		case buf := <-p.queue:
			p.writeBurst(buf)
		}
	}
}

// drainAndClose empties the queue and closes the connection on shutdown.
func (p *peer) drainAndClose() {
	for {
		select {
		case buf := <-p.queue:
			putSendBuf(buf)
		default:
			p.mu.Lock()
			if p.conn != nil {
				p.conn.Close()
				p.conn = nil
			}
			p.mu.Unlock()
			return
		}
	}
}

// burstWriters lends each burst its write buffer: an idle connection
// holds none.
var burstWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// writeBurst ships one frame plus everything else already queued in a
// single buffered write: one flush (and mostly one syscall) per burst
// instead of two writes per frame. This keeps the drain rate
// memcpy-bound, so retransmission storms and coalesced-ack floods from
// the protocol layer don't overflow the bounded queue just because each
// frame is tiny. The per-frame write deadline is refreshed before every
// frame, covering bufio's intermediate auto-flushes, so a peer that
// stalls mid-burst still fails within WriteTimeout. Reset(nil) hands the
// buffer back without unflushed bytes or a failed write's sticky error.
func (p *peer) writeBurst(first []byte) {
	conn := p.ensureConn()
	if conn == nil {
		putSendBuf(first)
		return // dial failed or backoff pending; frame dropped (counted)
	}
	bw := burstWriters.Get().(*bufio.Writer)
	bw.Reset(conn)
	frames, bytes := 0, 0
	buf := first
	var err error
	for {
		conn.SetWriteDeadline(time.Now().Add(p.e.cfg.WriteTimeout))
		err = writeFrame(bw, buf)
		putSendBuf(buf)
		if err != nil {
			frames++ // the frame that failed
			break
		}
		frames++
		bytes += len(buf) + frameHeaderLen
		select {
		case buf = <-p.queue:
			continue
		default:
		}
		conn.SetWriteDeadline(time.Now().Add(p.e.cfg.WriteTimeout))
		err = bw.Flush()
		break
	}
	bw.Reset(nil)
	burstWriters.Put(bw)
	p.mu.Lock()
	if err != nil {
		// Everything written into the buffer this burst is suspect; count
		// the whole burst as dropped (conservative: bytes that reached an
		// intermediate auto-flush may still have been delivered).
		p.dropsWrite += uint64(frames)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			// The peer stalled mid-frame: its socket buffer is full and
			// nobody is reading. Evict the connection; the next frame
			// re-dials after backoff.
			p.writeTimeouts++
		}
		p.failLocked()
		p.mu.Unlock()
		return
	}
	p.framesSent += uint64(frames)
	p.bytesSent += uint64(bytes)
	p.consec = 0
	p.backoff = 0
	p.setStateLocked(StateHealthy)
	p.mu.Unlock()
}

// ensureConn returns the live connection, dialing when allowed. A nil
// return means the frame should be dropped: either the reconnect
// backoff has not elapsed, or the dial failed.
func (p *peer) ensureConn() net.Conn {
	p.mu.Lock()
	if p.conn != nil {
		conn := p.conn
		p.mu.Unlock()
		return conn
	}
	if !p.nextDialAt.IsZero() && time.Now().Before(p.nextDialAt) {
		p.dropsBackoff++
		p.mu.Unlock()
		return nil
	}
	wasFailed := p.consec > 0
	p.dials++
	if p.state != StateDead {
		// A dead peer's probe leaves the circuit open until it connects:
		// Send keeps reporting the peer dead while the dial is in flight.
		p.setStateLocked(StateDialing)
	}
	p.mu.Unlock()

	conn, err := p.e.dial(p.addr)

	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.dropsWrite++ // the frame that triggered the dial is lost
		p.failLocked()
		return nil
	}
	select {
	case <-p.quit:
		conn.Close()
		return nil
	default:
	}
	p.conn = conn
	if wasFailed {
		p.reconnects++
	}
	p.setStateLocked(StateHealthy)
	return conn
}

// failLocked records one connection-level failure: close the connection,
// advance the exponential backoff (with seeded jitter), and cross into
// Dead once FailThreshold consecutive failures accumulate. Callers hold
// p.mu.
func (p *peer) failLocked() {
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
		p.evictions++
	}
	p.consec++
	if p.backoff == 0 {
		p.backoff = p.e.cfg.ReconnectBase
	} else {
		p.backoff *= 2
	}
	if p.backoff > p.e.cfg.ReconnectMax {
		p.backoff = p.e.cfg.ReconnectMax
	}
	// Deterministic per-endpoint jitter in [0, backoff/4): de-synchronizes
	// reconnect storms across a cluster without a shared RNG lock.
	jitter := time.Duration(0)
	if p.backoff > 4 {
		jitter = time.Duration(p.e.jitterSeed.Add(0x9e3779b97f4a7c15) % uint64(p.backoff/4))
	}
	p.nextDialAt = time.Now().Add(p.backoff + jitter)
	if p.consec >= p.e.cfg.FailThreshold {
		p.setStateLocked(StateDead)
	} else {
		p.setStateLocked(StateDegraded)
	}
}

// stop signals the writer to drain and exit.
func (p *peer) stop() {
	close(p.quit)
	p.mu.Lock()
	if p.conn != nil {
		// Unblock a writer stuck inside a write: closing fails the write
		// immediately instead of waiting out the deadline.
		p.conn.Close()
	}
	p.mu.Unlock()
}

// stats snapshots the peer's counters.
func (p *peer) stats() PeerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PeerStats{
		Addr:           p.addr,
		State:          p.state.String(),
		QueueLen:       len(p.queue),
		QueueCap:       cap(p.queue),
		Dials:          p.dials,
		Reconnects:     p.reconnects,
		FramesSent:     p.framesSent,
		BytesSent:      p.bytesSent,
		DropsQueueFull: p.dropsQueueFull,
		DropsBackoff:   p.dropsBackoff,
		DropsWrite:     p.dropsWrite,
		WriteTimeouts:  p.writeTimeouts,
		Evictions:      p.evictions,
		ConsecFails:    p.consec,
		LastStateSince: p.stateSince,
	}
}

// Stats aggregates an endpoint's managed-connection state: the peer
// table plus inbound connection count.
type Stats struct {
	Peers   []PeerStats `json:"peers"` // ascending by Addr
	Inbound int         `json:"inbound"`
}

// NetStats snapshots every managed peer (sorted by address) and the
// inbound connection count.
func (e *Endpoint) NetStats() Stats {
	e.mu.Lock()
	peers := make([]*peer, 0, len(e.peers))
	for _, p := range e.peers {
		peers = append(peers, p)
	}
	inbound := len(e.inbound)
	e.mu.Unlock()

	st := Stats{Inbound: inbound}
	for _, p := range peers {
		st.Peers = append(st.Peers, p.stats())
	}
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].Addr < st.Peers[j].Addr })
	return st
}

// Health condenses NetStats into the metrics package's transport-health
// summary, the form Node-level dashboards and the ops endpoint consume.
func (e *Endpoint) Health() metrics.Transport {
	st := e.NetStats()
	var h metrics.Transport
	h.InboundConns = st.Inbound
	for _, p := range st.Peers {
		h.Dials += p.Dials
		h.Reconnects += p.Reconnects
		h.Evictions += p.Evictions
		h.FramesSent += p.FramesSent
		h.FramesDropped += p.DropsQueueFull + p.DropsBackoff + p.DropsWrite
		h.WriteTimeouts += p.WriteTimeouts
		switch p.State {
		case "healthy":
			h.PeersHealthy++
		case "degraded":
			h.PeersDegraded++
		case "dead":
			h.PeersDead++
		default:
			h.PeersDialing++
		}
	}
	return h
}

// PeerState reports the lifecycle state of one peer; ok is false if the
// peer has never been sent to.
func (e *Endpoint) PeerState(addr string) (PeerState, bool) {
	e.mu.Lock()
	p, ok := e.peers[addr]
	e.mu.Unlock()
	if !ok {
		return StateDialing, false
	}
	return p.State(), true
}

// --- send-buffer pool ----------------------------------------------------

// Send must copy: the caller may recycle its buffer the moment Send
// returns (mind.Node does), while the frame now waits in a peer queue.
// The pool keeps that copy from being a fresh allocation per message.
// Same shape as wire's encode-buffer pool.
var sendBufPool sync.Pool

const maxPooledSendBuf = 1 << 20

func getSendBuf(n int) []byte {
	if v := sendBufPool.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:n]
		}
		sendBufPool.Put(v)
	}
	return make([]byte, n)
}

func putSendBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledSendBuf {
		return
	}
	b = b[:0]
	sendBufPool.Put(&b)
}
