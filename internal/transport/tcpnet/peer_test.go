package tcpnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// fastCfg keeps connection-management timing test-sized.
func fastCfg() Config {
	return Config{
		DialTimeout:    500 * time.Millisecond,
		WriteTimeout:   300 * time.Millisecond,
		SendQueue:      8,
		EnqueueTimeout: 150 * time.Millisecond,
		ReconnectBase:  5 * time.Millisecond,
		ReconnectMax:   50 * time.Millisecond,
		FailThreshold:  2,
	}
}

// TestPeerLifecycle walks one managed peer through its full state
// machine: dialing → dead against a refused port (with the dial counter
// bounded by backoff, not one dial per frame), then → healthy when a
// listener appears on that address, with the recovery counted as a
// reconnect.
func TestPeerLifecycle(t *testing.T) {
	a, err := ListenConfig("127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Reserve an address, then free it so dials are refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	target := l.Addr().String()
	l.Close()

	// Pump frames until the circuit opens.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("circuit never opened")
		}
		a.Send(target, []byte("x"))
		if st, ok := a.PeerState(target); ok && st == StateDead {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// With ReconnectMax 50ms, five seconds of failures cannot have
	// produced more than ~1s/5ms worth of dials; the point is that dial
	// attempts are clocked by backoff, not by offered frames.
	st := a.NetStats()
	if len(st.Peers) != 1 {
		t.Fatalf("peer table: %+v", st.Peers)
	}
	ps := st.Peers[0]
	if ps.State != "dead" || ps.ConsecFails < 2 {
		t.Fatalf("dead peer stats: %+v", ps)
	}
	if ps.Dials == 0 || ps.Dials > 200 {
		t.Fatalf("dials = %d, want bounded by backoff", ps.Dials)
	}
	if ps.DropsWrite+ps.DropsBackoff == 0 {
		t.Fatal("no drops counted for an unreachable peer")
	}

	// Bring the peer up on the reserved address: background probing must
	// recover the connection and deliver. The rebind retries for a bounded
	// 2s (the released port may linger briefly) and fails past it.
	var b *Endpoint
	for rebind := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if b, err = ListenConfig(target, fastCfg()); err == nil {
			break
		}
		if time.Now().After(rebind) {
			t.Fatalf("rebind %s: %v", target, err)
		}
	}
	defer b.Close()
	got := make(chan struct{}, 1)
	b.SetHandler(func(string, []byte) {
		select {
		case got <- struct{}{}:
		default:
		}
	})
	deadline = time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("peer never recovered after listener came up")
		}
		a.Send(target, []byte("y"))
		if st, ok := a.PeerState(target); ok && st == StateHealthy {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery after recovery")
	}
	ps = a.NetStats().Peers[0]
	if ps.Reconnects == 0 {
		t.Fatalf("recovery not counted as reconnect: %+v", ps)
	}
	if ps.ConsecFails != 0 {
		t.Fatalf("consec fails not reset on recovery: %+v", ps)
	}
}

// TestListenerRestartMidTraffic restarts the receiving endpoint while
// the sender streams frames at it. Delivery must resume on the restarted
// listener, the outage must be visible in the reconnect/eviction
// counters, and the dial count must stay bounded by backoff rather than
// scaling with the frames offered during the outage.
func TestListenerRestartMidTraffic(t *testing.T) {
	a, err := ListenConfig("127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenConfig("127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	bAddr := b.Addr()
	got := make(chan struct{}, 1024)
	handler := func(string, []byte) {
		select {
		case got <- struct{}{}:
		default:
		}
	}
	b.SetHandler(handler)

	a.Send(bAddr, []byte("warm"))
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery before restart")
	}

	// Take the listener down and keep the traffic flowing into the
	// outage: frames drop (counted), dials are paced by backoff.
	b.Close()
	for i := 0; i < 200; i++ {
		a.Send(bAddr, []byte("during-outage"))
		time.Sleep(time.Millisecond)
	}

	var b2 *Endpoint
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		b2, err = ListenConfig(bAddr, fastCfg())
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	defer b2.Close()
	for len(got) > 0 {
		<-got
	}
	b2.SetHandler(handler)

	deadline = time.Now().Add(5 * time.Second)
	delivered := false
	for time.Now().Before(deadline) && !delivered {
		a.Send(bAddr, []byte("after-restart"))
		select {
		case <-got:
			delivered = true
		case <-time.After(20 * time.Millisecond):
		}
	}
	if !delivered {
		t.Fatal("no delivery after listener restart")
	}

	ps := a.NetStats().Peers[0]
	if ps.State != "healthy" {
		t.Fatalf("peer not healthy after recovery: %+v", ps)
	}
	if ps.Evictions == 0 {
		t.Fatalf("outage left no eviction trace: %+v", ps)
	}
	if ps.Reconnects == 0 {
		t.Fatalf("recovery not counted as reconnect: %+v", ps)
	}
	// 200 frames went into the outage; backoff pacing means dials must be
	// far fewer than frames offered.
	if ps.Dials > 100 {
		t.Fatalf("dials = %d for ~200 offered frames: reconnect storm", ps.Dials)
	}
}

// TestSlowPeerEviction points the sender at a raw TCP listener that
// accepts and then never reads: the socket fills, the per-frame write
// deadline expires, and the connection must be evicted with the stall
// counted — while every Send returns within the bounded enqueue wait
// instead of hanging on the frozen peer.
func TestSlowPeerEviction(t *testing.T) {
	cfg := fastCfg()
	a, err := ListenConfig("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- c // held open, never read
		}
	}()
	defer func() {
		for {
			select {
			case c := <-accepted:
				c.Close()
			default:
				return
			}
		}
	}()

	// Large frames fill the 64KiB write buffer and the kernel socket
	// buffer quickly; after that writes stall until the deadline.
	frame := make([]byte, 256<<10)
	maxWait := cfg.EnqueueTimeout + cfg.WriteTimeout + time.Second
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("write deadline never fired against a non-reading peer")
		}
		start := time.Now()
		a.Send(l.Addr().String(), frame)
		if d := time.Since(start); d > maxWait {
			t.Fatalf("Send blocked %v, want < %v (bounded sender blocking)", d, maxWait)
		}
		ps := a.NetStats().Peers[0]
		if ps.WriteTimeouts > 0 {
			if ps.Evictions == 0 {
				t.Fatalf("write timeout without eviction: %+v", ps)
			}
			if ps.State == "healthy" {
				t.Fatalf("stalled peer still healthy: %+v", ps)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPeerFootprint holds a connected, idle peer to a small fixed cost:
// one endpoint sends one frame to each of 64 listeners, and once every
// burst is over, the live heap may grow by at most 24 KB per peer. That
// covers both ends of a connection — the 12 KB send-queue array, the
// inbound side's 4 KB read buffer, the conns and the peer itself — but
// not a write buffer, which a peer borrows only for a burst.
func TestPeerFootprint(t *testing.T) {
	const peers = 64
	const perPeer = 24 << 10
	var got sync.WaitGroup
	got.Add(peers + 1)
	listeners := make([]*Endpoint, peers+1)
	for i := range listeners {
		l, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		l.SetHandler(func(string, []byte) { got.Done() })
		listeners[i] = l
	}
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle empties sync.Pool's victim cache
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	// One warm-up peer first, so the runtime's and net's one-time costs
	// (threads, first dial) land before the baseline.
	if err := a.Send(listeners[peers].Addr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return a.NetStats().Peers[0].FramesSent == 1 })
	before := heapInuse()
	for _, l := range listeners[:peers] {
		if err := a.Send(l.Addr(), []byte("hello")); err != nil {
			t.Fatal(err)
		}
	}
	got.Wait()
	// Delivery precedes the sender's bookkeeping: wait until every
	// writer has counted its burst, so no burst still holds a buffer.
	waitFor(t, func() bool {
		for _, ps := range a.NetStats().Peers {
			if ps.FramesSent != 1 {
				return false
			}
		}
		return true
	})
	after := heapInuse()
	grown := int64(after) - int64(before)
	t.Logf("heap in use grew %d B for %d peers (%d B each)", grown, peers, grown/peers)
	if grown > peers*perPeer {
		t.Fatalf("heap in use grew %d B for %d idle peers, %d B each; want <= %d B each",
			grown, peers, grown/peers, perPeer)
	}
}

// TestBurstBufferCleanAfterWriteError: a burst whose write fails midway
// (the peer closed its end) leaves unflushed bytes and a sticky error in
// its buffer. The buffer it hands back must be empty, and the next
// burst, to a live peer, must deliver intact frames in order. One P
// makes the pool hand the failed burst's buffer to the next borrower.
func TestBurstBufferCleanAfterWriteError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, err := ListenConfig("127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenConfig("127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var mu sync.Mutex
	var recv [][]byte
	b.SetHandler(func(_ string, msg []byte) {
		mu.Lock()
		recv = append(recv, msg)
		mu.Unlock()
	})

	// closer accepts, reads the hello and closes: the sender's next
	// writes on that connection fail.
	closer, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	go func() {
		for {
			c, err := closer.Accept()
			if err != nil {
				return
			}
			c.Read(make([]byte, 64))
			c.Close()
		}
	}()

	frame := func(seq int) []byte {
		f := bytes.Repeat([]byte{byte(seq)}, 10<<10)
		binary.BigEndian.PutUint64(f, uint64(seq))
		return f
	}
	seq := 0
	for round := 0; round < 3; round++ {
		fails := func() uint64 {
			for _, ps := range a.NetStats().Peers {
				if ps.Addr == closer.Addr().String() {
					return ps.DropsWrite
				}
			}
			return 0
		}
		before := fails()
		deadline := time.Now().Add(5 * time.Second)
		for fails() == before {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: no write to the closed peer failed", round)
			}
			for i := 0; i < 8; i++ {
				a.Send(closer.Addr().String(), frame(0))
			}
			time.Sleep(2 * time.Millisecond)
		}
		for i := 0; i < 4; i++ {
			bw := burstWriters.Get().(*bufio.Writer)
			if bw.Buffered() != 0 {
				t.Fatalf("round %d: pooled write buffer holds %d stale bytes", round, bw.Buffered())
			}
			burstWriters.Put(bw)
		}
		for i := 0; i < 16; i++ {
			seq++
			if err := a.Send(b.Addr(), frame(seq)); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(recv) >= seq
		})
	}
	mu.Lock()
	defer mu.Unlock()
	if len(recv) != seq {
		t.Fatalf("live peer got %d frames, sent %d", len(recv), seq)
	}
	for i, msg := range recv {
		if !bytes.Equal(msg, frame(i+1)) {
			t.Fatalf("frame %d arrived damaged or out of order (seq %d, %d bytes)",
				i+1, binary.BigEndian.Uint64(msg), len(msg))
		}
	}
}
