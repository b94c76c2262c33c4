package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mind/internal/transport/tcpnet"
	"mind/internal/wire"
)

// The load generator drives the deployment only through the two
// surfaces users have: the flow-frame ingest socket and the client RPCs.

const (
	frameRecords = 256
	frameWindow  = 32 // frames in flight beyond the last status, as ingest.Client allows
	rpcTimeout   = 10 * time.Second
	settleWait   = 60 * time.Second
)

// frameSet is a record stream pre-encoded as length-prefixed flow
// frames, so that no encoding work runs inside a timed section. Frame i
// carries sequence number i+1: a connection sends its frames in order.
type frameSet struct {
	buf  []byte
	off  []int // frame i is buf[off[i]:off[i+1]]
	recs int   // records in total
}

func encodeFrames(tag string, flat []uint64) *frameSet {
	n := len(flat) / arity
	fs := &frameSet{recs: n, buf: make([]byte, 0, n*arity*8+(n/frameRecords+1)*40)}
	view := make([][]uint64, 0, frameRecords)
	for i := 0; i < n; i += frameRecords {
		view = view[:0]
		for j := i; j < n && j < i+frameRecords; j++ {
			view = append(view, flat[j*arity:(j+1)*arity])
		}
		fs.off = append(fs.off, len(fs.buf))
		fs.buf = append(fs.buf, 0, 0, 0, 0)
		body := len(fs.buf)
		fs.buf = wire.AppendFlowFrame(fs.buf, uint64(len(fs.off)), tag, arity, view)
		binary.BigEndian.PutUint32(fs.buf[body-4:], uint32(len(fs.buf)-body))
	}
	fs.off = append(fs.off, len(fs.buf))
	return fs
}

func (fs *frameSet) frames() int        { return len(fs.off) - 1 }
func (fs *frameSet) frame(i int) []byte { return fs.buf[fs.off[i]:fs.off[i+1]] }
func (fs *frameSet) recsThrough(seq int) int { // records in frames 1..seq
	if seq >= fs.frames() {
		return fs.recs
	}
	return seq * frameRecords
}

// statusAt is one status frame with its arrival time and the process's
// CPU time at that moment.
type statusAt struct {
	at  time.Time
	cpu time.Duration
	st  wire.StreamStatus
}

// streamClient speaks the ingest socket's protocol: length-prefixed flow
// frames out, StreamStatus frames back. It differs from ingest.Client in
// what a benchmark needs: it sends pre-encoded frames, it times a frame
// from a caller-given instant (the due time, in an open loop) to the
// first status whose Seq covers it, and it wakes a window-limited sender
// on the status instead of polling.
type streamClient struct {
	conn net.Conn
	done chan struct{}

	mu       sync.Mutex
	cond     *sync.Cond
	last     wire.StreamStatus
	readErr  error
	from     []time.Time     // from[seq-1]: instant frame seq is timed from
	ack      []time.Duration // ack[seq-1]: from → covering status; 0 = not covered
	covered  uint64          // frames covered so far
	settled  uint64          // highest Seq of a status that reported every received record settled
	statuses []statusAt
}

func dialStream(addr string, frames int) (*streamClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial ingest %s: %w", addr, err)
	}
	c := &streamClient{
		conn: conn,
		done: make(chan struct{}),
		from: make([]time.Time, 0, frames),
		ack:  make([]time.Duration, frames),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.readLoop()
	return c, nil
}

func (c *streamClient) readLoop() {
	defer close(c.done)
	var lenBuf [4]byte
	buf := make([]byte, 0, 256)
	fail := func(err error) {
		c.mu.Lock()
		c.readErr = err
		c.cond.Broadcast()
		c.mu.Unlock()
	}
	for {
		if _, err := io.ReadFull(c.conn, lenBuf[:]); err != nil {
			fail(err)
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > 1<<16 {
			fail(fmt.Errorf("status frame of %d bytes", n))
			return
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(c.conn, buf); err != nil {
			fail(err)
			return
		}
		now, cpu := time.Now(), cpuTime()
		m, err := wire.Decode(buf)
		st, ok := m.(*wire.StreamStatus)
		if err != nil || !ok {
			continue
		}
		c.mu.Lock()
		c.last = *st
		c.statuses = append(c.statuses, statusAt{at: now, cpu: cpu, st: *st})
		for c.covered < st.Seq && c.covered < uint64(len(c.from)) {
			c.ack[c.covered] = now.Sub(c.from[c.covered])
			c.covered++
		}
		if st.Acked+st.Failed+st.Dropped >= st.Received {
			c.settled = st.Seq
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// send writes one pre-encoded frame, timing it from the given instant.
// With window set it first waits until fewer than frameWindow frames are
// in flight beyond the last status (closed loop).
func (c *streamClient) send(frame []byte, from time.Time, window bool) error {
	c.mu.Lock()
	for window && c.readErr == nil && uint64(len(c.from))-c.last.Seq >= frameWindow {
		c.cond.Wait()
	}
	err := c.readErr
	c.from = append(c.from, from)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = c.conn.Write(frame)
	return err
}

// sendAll streams a whole frame set closed-loop (backfill).
func (c *streamClient) sendAll(fs *frameSet) error {
	for i := 0; i < fs.frames(); i++ {
		if err := c.send(fs.frame(i), time.Now(), true); err != nil {
			return err
		}
	}
	return nil
}

// waitSettled blocks until a status covers every frame sent and reports
// every received record acked, failed or dropped.
func (c *streamClient) waitSettled(timeout time.Duration) (wire.StreamStatus, error) {
	timer := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		if c.readErr == nil {
			c.readErr = errors.New("ingest stream did not settle")
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.readErr == nil && c.settled < uint64(len(c.from)) {
		c.cond.Wait()
	}
	return c.last, c.readErr
}

// settledFrames is the number of leading frames whose records are all
// known to be settled.
func (c *streamClient) settledFrames() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.settled)
}

func (c *streamClient) close() {
	c.conn.Close()
	<-c.done
}

// rpcClient is one closed-loop client outside the overlay: its own
// tcpnet endpoint, one entry node, one request in flight.
type rpcClient struct {
	ep    *tcpnet.Endpoint
	entry string
	reply chan wire.Message // capacity 8: late replies to timed-out requests must not block the reader
	timer *time.Timer
	reqID uint64
}

func newRPCClient(entry string) (*rpcClient, error) {
	ep, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &rpcClient{ep: ep, entry: entry, reply: make(chan wire.Message, 8), timer: time.NewTimer(time.Hour)}
	ep.SetHandler(func(_ string, data []byte) {
		if m, err := wire.Decode(data); err == nil {
			select {
			case c.reply <- m:
			default:
			}
		}
	})
	return c, nil
}

func replyID(m wire.Message) uint64 {
	switch r := m.(type) {
	case *wire.ClientAck:
		return r.ReqID
	case *wire.ClientQueryResp:
		return r.ReqID
	case *wire.ClientAggResp:
		return r.ReqID
	}
	return 0
}

// call sends one request (whose ReqID the caller took from nextID) and
// waits for the matching reply. Callers time it whole: from before the
// request is encoded until the decoded reply is in their hands.
func (c *rpcClient) call(req wire.Message) (wire.Message, error) {
	data := wire.Encode(req)
	err := c.ep.Send(c.entry, data)
	wire.RecycleBuf(data)
	if err != nil {
		return nil, err
	}
	if !c.timer.Stop() {
		select {
		case <-c.timer.C:
		default:
		}
	}
	c.timer.Reset(rpcTimeout)
	for {
		select {
		case m := <-c.reply:
			if replyID(m) == c.reqID {
				return m, nil
			}
		case <-c.timer.C:
			return nil, fmt.Errorf("no reply from %s within %v", c.entry, rpcTimeout)
		}
	}
}

func (c *rpcClient) nextID() uint64 {
	c.reqID++
	return c.reqID
}

func (c *rpcClient) close() {
	c.timer.Stop()
	c.ep.Close()
}
