package tcpnet

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"mind/internal/schema"
	"mind/internal/wire"
)

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestSendReceive(t *testing.T) {
	a, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var mu sync.Mutex
	var gotFrom string
	var gotMsg []byte
	b.SetHandler(func(from string, msg []byte) {
		mu.Lock()
		defer mu.Unlock()
		gotFrom, gotMsg = from, append([]byte(nil), msg...)
	})
	if err := a.Send(b.Addr(), []byte("hello over tcp")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return gotMsg != nil
	})
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(gotMsg, []byte("hello over tcp")) {
		t.Fatalf("msg = %q", gotMsg)
	}
	// Attribution must use the advertised listen address, not the
	// ephemeral source port.
	if gotFrom != a.Addr() {
		t.Fatalf("from = %q, want %q", gotFrom, a.Addr())
	}
}

func TestBidirectionalAndMany(t *testing.T) {
	a, _ := Listen("127.0.0.1:0")
	defer a.Close()
	b, _ := Listen("127.0.0.1:0")
	defer b.Close()

	var mu sync.Mutex
	recvA, recvB := 0, 0
	a.SetHandler(func(string, []byte) { mu.Lock(); recvA++; mu.Unlock() })
	b.SetHandler(func(string, []byte) { mu.Lock(); recvB++; mu.Unlock() })
	for i := 0; i < 100; i++ {
		if err := a.Send(b.Addr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := b.Send(a.Addr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return recvA == 100 && recvB == 100
	})
}

func TestReconnectAfterPeerRestart(t *testing.T) {
	a, _ := Listen("127.0.0.1:0")
	defer a.Close()
	b, _ := Listen("127.0.0.1:0")
	bAddr := b.Addr()

	var mu sync.Mutex
	n := 0
	handler := func(string, []byte) { mu.Lock(); n++; mu.Unlock() }
	b.SetHandler(handler)
	if err := a.Send(bAddr, []byte("one")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return n == 1 })

	// Restart b on the same address.
	b.Close()
	var b2 *Endpoint
	var err error
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		b2, err = Listen(bAddr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	defer b2.Close()
	b2.SetHandler(handler)

	// a's managed connection is stale; the peer writer must recover via
	// re-dial. The first write into a half-dead TCP connection can
	// succeed at the OS level, so allow a few attempts.
	deadline = time.Now().Add(4 * time.Second)
	for time.Now().Before(deadline) {
		a.Send(bAddr, []byte("two"))
		mu.Lock()
		ok := n >= 2
		mu.Unlock()
		if ok {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if n < 2 {
		t.Fatal("no delivery after peer restart")
	}
}

// TestSendToNowhere: dialing happens on the peer's writer goroutine, so
// the first Send to an unreachable peer queues without error; once the
// dial failures cross FailThreshold the circuit opens and Send reports
// the dead peer synchronously.
func TestSendToNowhere(t *testing.T) {
	a, err := ListenConfig("127.0.0.1:0", Config{
		ReconnectBase: time.Millisecond,
		ReconnectMax:  5 * time.Millisecond,
		FailThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := a.Send("127.0.0.1:1", []byte("x")); err != nil {
			st, ok := a.PeerState("127.0.0.1:1")
			if !ok || st != StateDead {
				t.Fatalf("send errored but peer state = %v, %v", st, ok)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("circuit never opened for unreachable peer")
}

func TestClosedEndpointSend(t *testing.T) {
	a, _ := Listen("127.0.0.1:0")
	b, _ := Listen("127.0.0.1:0")
	defer b.Close()
	a.Close()
	if err := a.Send(b.Addr(), []byte("x")); err == nil {
		t.Fatal("closed endpoint could send")
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestLargeFrame(t *testing.T) {
	a, _ := Listen("127.0.0.1:0")
	defer a.Close()
	b, _ := Listen("127.0.0.1:0")
	defer b.Close()
	var mu sync.Mutex
	var got []byte
	b.SetHandler(func(_ string, msg []byte) {
		mu.Lock()
		got = append([]byte(nil), msg...)
		mu.Unlock()
	})
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := a.Send(b.Addr(), big); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return got != nil })
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(got, big) {
		t.Fatal("large frame corrupted")
	}
}

func TestFrameCodec(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, err := newFrameReader(&buf, 0).next()
	if err != nil || string(got) != "abc" {
		t.Fatalf("frame = %q, %v", got, err)
	}
	// Oversized frame header rejected.
	var huge bytes.Buffer
	huge.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := newFrameReader(&huge, 0).next(); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Truncated payload.
	var trunc bytes.Buffer
	trunc.Write([]byte{0, 0, 0, 10, 1, 2})
	if _, err := newFrameReader(&trunc, 0).next(); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestBatchPayloadRoundTrip(t *testing.T) {
	// A coalesced wire.Batch envelope must cross the framed TCP link
	// intact and decode back into its sub-messages.
	a, _ := Listen("127.0.0.1:0")
	defer a.Close()
	b, _ := Listen("127.0.0.1:0")
	defer b.Close()

	sub1 := wire.Encode(&wire.Heartbeat{From: wire.NodeInfo{Addr: a.Addr()}})
	sent := &wire.InsertAcks{}
	sent.Append(42, 5)
	sub2 := wire.Encode(sent)
	payload := wire.Encode(&wire.Batch{Msgs: [][]byte{sub1, sub2}})

	var mu sync.Mutex
	var got []byte
	b.SetHandler(func(_ string, msg []byte) {
		mu.Lock()
		got = append([]byte(nil), msg...)
		mu.Unlock()
	})
	if err := a.Send(b.Addr(), payload); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return got != nil })
	mu.Lock()
	defer mu.Unlock()
	m, err := wire.Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	batch, ok := m.(*wire.Batch)
	if !ok {
		t.Fatalf("decoded %T, want *wire.Batch", m)
	}
	if len(batch.Msgs) != 2 {
		t.Fatalf("batch carries %d sub-messages", len(batch.Msgs))
	}
	ack, err := wire.Decode(batch.Msgs[1])
	if err != nil {
		t.Fatal(err)
	}
	if a2, ok := ack.(*wire.InsertAcks); !ok || !reflect.DeepEqual(a2.Rows.Records(), []schema.Record{{42, 5}}) {
		t.Fatalf("sub-message round-trip: %#v", ack)
	}
}
