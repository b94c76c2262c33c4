// Package tcpnet implements transport.Endpoint over real TCP
// connections, for deploying MIND nodes as separate processes or hosts
// (cmd/mindnode). Messages are framed with a 4-byte big-endian length
// prefix.
//
// Outbound connections are managed per peer: each peer has a persistent
// connection with explicit lifecycle state (dialing / healthy /
// degraded / dead), a bounded send queue drained by a dedicated writer,
// per-frame write deadlines, and reconnection with exponential backoff
// plus jitter (peer.go). Send never blocks on a slow or dead peer — a
// full queue or an open circuit drops the frame and counts it, exactly
// the lossy-datagram contract the protocol layer above already owns
// retries for (the paper's "repeatedly attempt to reconnect" behaviour
// for transient link failures, §3.8, moved below the protocol).
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mind/internal/transport"
)

// MaxFrame bounds accepted frame sizes (16 MiB).
const MaxFrame = 16 << 20

// frameHeaderLen is the length-prefix size.
const frameHeaderLen = 4

// DefaultDialTimeout bounds outbound connection attempts unless
// Config.DialTimeout overrides it.
const DefaultDialTimeout = 5 * time.Second

// Config tunes an endpoint's connection management. The zero value
// selects production defaults; Listen uses it.
type Config struct {
	// DialTimeout bounds one outbound connection attempt (default 5s).
	DialTimeout time.Duration
	// WriteTimeout is the per-frame write deadline. A peer that stalls
	// mid-frame (full socket buffer, frozen receiver) fails the write at
	// the deadline and its connection is evicted (default 10s).
	WriteTimeout time.Duration
	// ReadTimeout is the per-frame body deadline on inbound connections:
	// once a frame header arrives, the remaining bytes must arrive within
	// it. Idle connections (no header started) are never timed out, so
	// long-lived quiet peers survive; byte-tricklers do not (default 30s).
	ReadTimeout time.Duration
	// SendQueue is the per-peer bounded send-queue length (default 512).
	SendQueue int
	// EnqueueTimeout bounds how long Send blocks on a full queue before
	// dropping the frame. A transient burst (receiver catching up) gets
	// backpressure instead of loss; a genuinely stalled peer caps every
	// sender at this bound — the "bounded sender blocking" guarantee.
	// Send never waits on a peer whose circuit is already open (default
	// 1s).
	EnqueueTimeout time.Duration
	// ReconnectBase is the first reconnect backoff after a failure; it
	// doubles per consecutive failure up to ReconnectMax, with jitter
	// (defaults 50ms / 3s).
	ReconnectBase time.Duration
	// ReconnectMax caps the reconnect backoff.
	ReconnectMax time.Duration
	// FailThreshold is how many consecutive connection failures move a
	// peer to the Dead state, after which Send reports an error (circuit
	// open) while background probing continues at the backoff cap
	// (default 3).
	FailThreshold int
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.SendQueue <= 0 {
		c.SendQueue = 512
	}
	if c.EnqueueTimeout <= 0 {
		c.EnqueueTimeout = time.Second
	}
	if c.ReconnectBase <= 0 {
		c.ReconnectBase = 50 * time.Millisecond
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = 3 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	return c
}

// Endpoint is a TCP attachment listening on its address.
type Endpoint struct {
	listener net.Listener
	addr     string
	cfg      Config

	mu      sync.Mutex
	handler transport.Handler
	peers   map[string]*peer  // managed outbound connections
	inbound map[net.Conn]bool // accepted connections, closed on shutdown
	closed  bool
	wg      sync.WaitGroup

	jitterSeed atomic.Uint64 // reconnect-jitter sequence (peer.go)
}

// Listen starts an endpoint on addr (e.g. ":7070" or "10.0.0.2:7070")
// with default connection management. The endpoint's advertised address
// is the listener's concrete address.
func Listen(addr string) (*Endpoint, error) {
	return ListenConfig(addr, Config{})
}

// ListenConfig starts an endpoint with explicit connection-management
// tuning.
func ListenConfig(addr string, cfg Config) (*Endpoint, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	e := &Endpoint{
		listener: l,
		addr:     l.Addr().String(),
		cfg:      cfg.withDefaults(),
		peers:    make(map[string]*peer),
		inbound:  make(map[net.Conn]bool),
	}
	e.jitterSeed.Store(uint64(time.Now().UnixNano()))
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr returns the endpoint's advertised address.
func (e *Endpoint) Addr() string { return e.addr }

// SetHandler installs the receive callback.
func (e *Endpoint) SetHandler(h transport.Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.inbound[conn] = true
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

// readLoop decodes frames from one inbound connection. The first frame
// on every connection is a hello carrying the peer's advertised address,
// so inbound messages can be attributed to stable addresses rather than
// ephemeral ports. Each frame body is read under ReadTimeout: a peer
// that freezes mid-frame is disconnected instead of pinning this
// goroutine forever, while idle-but-healthy connections live on.
func (e *Endpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		conn.Close()
		e.mu.Lock()
		delete(e.inbound, conn)
		e.mu.Unlock()
	}()
	fr := newFrameReader(conn, e.cfg.ReadTimeout)
	peer := ""
	for {
		frame, err := fr.next()
		if err != nil {
			return
		}
		if peer == "" {
			peer = string(frame) // hello frame
			continue
		}
		e.mu.Lock()
		h := e.handler
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return
		}
		if h != nil {
			h(peer, frame)
		}
	}
}

// readBufSize is the per-connection read buffer. Small frames (acks,
// single inserts, heartbeats) arrive header and body — and usually
// several frames — in one read(2); a body larger than the buffer is
// read straight into its own frame buffer, bypassing this one. Kept
// small because every inbound connection holds one for its lifetime.
const readBufSize = 4 << 10

// frameReader reads length-prefixed frames from one connection through a
// small buffer. The wait for a header carries no deadline (an idle
// connection is healthy); once a header has arrived, a body that is not
// already buffered must complete within bodyTimeout.
type frameReader struct {
	br          *bufio.Reader
	conn        net.Conn // nil for plain readers (tests): no deadlines
	bodyTimeout time.Duration
	armed       bool // a read deadline is set on conn
}

func newFrameReader(r io.Reader, bodyTimeout time.Duration) *frameReader {
	conn, _ := r.(net.Conn)
	return &frameReader{br: bufio.NewReaderSize(r, readBufSize), conn: conn, bodyTimeout: bodyTimeout}
}

// next returns the next frame in a freshly allocated buffer (handlers
// keep decoded records that alias it).
func (fr *frameReader) next() ([]byte, error) {
	if fr.armed {
		fr.conn.SetReadDeadline(time.Time{})
		fr.armed = false
	}
	hdr, err := fr.br.Peek(frameHeaderLen)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", n)
	}
	fr.br.Discard(frameHeaderLen)
	if fr.conn != nil && fr.bodyTimeout > 0 && fr.br.Buffered() < int(n) {
		fr.conn.SetReadDeadline(time.Now().Add(fr.bodyTimeout))
		fr.armed = true
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(fr.br, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// writeFrame writes one length-prefixed frame. Deadlines are the
// caller's responsibility (the peer writer sets a per-frame write
// deadline before calling).
func writeFrame(w io.Writer, msg []byte) error {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(msg)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(msg)
	return err
}

// Send queues one framed message for the peer's writer. It returns an
// error for immediately detectable failures: endpoint closed, the
// peer's send queue full (slow peer), or the peer's circuit open (Dead
// after repeated connection failures — background reconnection keeps
// probing). A nil return means the frame was queued, not that it was
// delivered; silent loss in transit remains possible, as the transport
// contract allows.
func (e *Endpoint) Send(to string, msg []byte) error {
	if len(msg) > MaxFrame {
		return fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", len(msg))
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return errors.New("tcpnet: endpoint closed")
	}
	p, ok := e.peers[to]
	if !ok {
		p = newPeer(e, to)
		e.peers[to] = p
	}
	e.mu.Unlock()

	buf := getSendBuf(len(msg))
	copy(buf, msg)
	if !p.enqueue(buf) {
		return fmt.Errorf("tcpnet: send queue to %s full (slow peer)", to)
	}
	if p.State() == StateDead {
		return fmt.Errorf("tcpnet: peer %s dead (reconnecting in background)", to)
	}
	return nil
}

// dial opens one connection to a peer and performs the hello handshake
// advertising our listen address, all under DialTimeout + WriteTimeout.
func (e *Endpoint) dial(to string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", to, e.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: dial %s: %w", to, err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c.SetWriteDeadline(time.Now().Add(e.cfg.WriteTimeout))
	if err := writeFrame(c, []byte(e.addr)); err != nil {
		c.Close()
		return nil, fmt.Errorf("tcpnet: hello to %s: %w", to, err)
	}
	return c, nil
}

// Close shuts the listener, every managed peer, and all inbound
// connections down.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	peers := e.peers
	e.peers = map[string]*peer{}
	for c := range e.inbound {
		c.Close()
	}
	e.mu.Unlock()
	for _, p := range peers {
		p.stop()
	}
	err := e.listener.Close()
	e.wg.Wait()
	return err
}

var _ transport.Endpoint = (*Endpoint)(nil)
