package tcpnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// Inbound-side tests: ReadTimeout's contract and the buffered frame
// reader, driven by a raw TCP client so the test controls exactly which
// bytes are on the wire when.

const testReadTimeout = 150 * time.Millisecond

// rawClient dials a fresh endpoint (ReadTimeout = testReadTimeout) with a
// plain socket, says hello, and returns the socket plus a snapshot
// function over the frames the endpoint's handler has received.
func rawClient(t *testing.T) (net.Conn, func() [][]byte) {
	t.Helper()
	e, err := ListenConfig("127.0.0.1:0", Config{ReadTimeout: testReadTimeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	var mu sync.Mutex
	var got [][]byte
	e.SetHandler(func(from string, msg []byte) {
		mu.Lock()
		got = append(got, msg)
		mu.Unlock()
	})
	conn, err := net.Dial("tcp", e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := writeFrame(conn, []byte("raw-client")); err != nil {
		t.Fatal(err)
	}
	return conn, func() [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return append([][]byte(nil), got...)
	}
}

func frameHeader(n int) []byte {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(n))
	return hdr[:]
}

// TestReadTimeoutMidBody: once a header has arrived, the rest of the
// frame must arrive within ReadTimeout. A peer that stalls mid-body — or
// trickles a byte at a time, which must not extend the deadline — is
// disconnected, both for a body that fits the read buffer and for one
// read around it.
func TestReadTimeoutMidBody(t *testing.T) {
	for _, tc := range []struct {
		name         string
		body, prefix int
		trickle      bool // keep sending a byte every ReadTimeout/5
	}{
		{"small-stall", 100, 10, false},
		{"small-trickle", 100, 10, true},
		{"large-stall", 16 * readBufSize, 2 * readBufSize, false},
		{"large-trickle", 16 * readBufSize, 2 * readBufSize, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, frames := rawClient(t)
			start := time.Now()
			if _, err := conn.Write(append(frameHeader(tc.body), make([]byte, tc.prefix)...)); err != nil {
				t.Fatal(err)
			}
			// Watch for the endpoint closing its side, feeding the
			// trickle meanwhile. A write error means it already did.
			one := make([]byte, 1)
			for {
				if time.Since(start) > 20*testReadTimeout {
					t.Fatalf("still connected %v after a stalled header (ReadTimeout %v)", time.Since(start), testReadTimeout)
				}
				if tc.trickle {
					if _, err := conn.Write(one); err != nil {
						break
					}
				}
				conn.SetReadDeadline(time.Now().Add(testReadTimeout / 5))
				_, err := conn.Read(one)
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					continue
				}
				if err != nil {
					break // EOF or reset: disconnected
				}
			}
			if took := time.Since(start); took < testReadTimeout/2 {
				t.Fatalf("disconnected after %v: before ReadTimeout %v could have elapsed", took, testReadTimeout)
			}
			if n := len(frames()); n != 0 {
				t.Fatalf("%d frames delivered from an incomplete body", n)
			}
		})
	}
}

// TestReadTimeoutSparesIdle: the deadline covers frame bodies only. A
// connection with no header started outlives several ReadTimeouts — at
// the start, and again after a frame whose slow body had armed the
// deadline, which must be cleared before the next header wait.
func TestReadTimeoutSparesIdle(t *testing.T) {
	conn, frames := rawClient(t)
	time.Sleep(4 * testReadTimeout)
	// Header and body in separate segments, so the body deadline arms.
	if _, err := conn.Write(frameHeader(5)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(testReadTimeout / 5)
	if _, err := conn.Write([]byte("first")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(frames()) == 1 })
	time.Sleep(4 * testReadTimeout)
	if err := writeFrame(conn, []byte("second")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(frames()) == 2 })
	if got := frames(); string(got[0]) != "first" || string(got[1]) != "second" {
		t.Fatalf("frames = %q", got)
	}
}

// TestReadBurstInOrder: many small frames written in one burst — which
// the read buffer takes in a handful of reads, several frames each, with
// frames straddling buffer refills — are all delivered, intact and in
// order, each in its own buffer.
func TestReadBurstInOrder(t *testing.T) {
	conn, frames := rawClient(t)
	const n = 3000
	var burst bytes.Buffer
	for i := 0; i < n; i++ {
		// Varying lengths walk the frame boundaries across the buffer.
		if err := writeFrame(&burst, []byte(fmt.Sprintf("frame-%d-%s", i, bytes.Repeat([]byte{'x'}, i%97)))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(frames()) == n })
	for i, f := range frames() {
		if want := fmt.Sprintf("frame-%d-%s", i, bytes.Repeat([]byte{'x'}, i%97)); string(f) != want {
			t.Fatalf("frame %d = %q, want %q", i, f, want)
		}
	}
}
