package ingest

import (
	"sync"
	"testing"
	"time"

	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/transport"
	"mind/internal/transport/tcpnet"
	"mind/internal/wire"
)

// ackDropEndpoint wraps a transport endpoint and swallows the FIRST
// InsertAck sent for every request id — bare, or riding in an envelope
// (which is re-wrapped without it) — exactly the loss the transport
// contract permits. The originator's batch-group retransmission schedule
// then has to re-send every remote record at least once, while the
// second (dedup-hit) ack settles it concurrently.
type ackDropEndpoint struct {
	transport.Endpoint
	mu      sync.Mutex
	seen    map[uint64]bool
	dropped int
}

// firstAck reports (and books) whether data is the first InsertAck seen
// for its request id.
func (e *ackDropEndpoint) firstAck(data []byte) bool {
	if len(data) == 0 || wire.Kind(data[0]) != wire.KindInsertAck {
		return false
	}
	m, err := wire.Decode(data)
	if err != nil {
		return false
	}
	reqID := m.(*wire.InsertAck).ReqID
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.seen[reqID] {
		return false
	}
	e.seen[reqID] = true
	e.dropped++
	return true
}

func (e *ackDropEndpoint) Send(to string, msg []byte) error {
	if e.firstAck(msg) {
		return nil
	}
	if m, err := wire.Decode(msg); err == nil {
		if env, ok := m.(*wire.Batch); ok {
			var kept [][]byte
			for _, sub := range env.Msgs {
				if !e.firstAck(sub) {
					kept = append(kept, sub)
				}
			}
			if len(kept) == 0 {
				return nil
			}
			if len(kept) < len(env.Msgs) {
				msg = wire.Encode(&wire.Batch{Msgs: kept})
			}
		}
	}
	return e.Endpoint.Send(to, msg)
}

func (e *ackDropEndpoint) droppedAcks() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropped
}

// TestRetransmitRecycleRace is the regression net for the data race
// between batch-group retransmission and ingest record recycling: an
// insertOp's msg.Rec aliases the engine's pooled record buffer, and a
// member that settles while resendInsertGroup is encoding its
// retransmission used to let a new producer overwrite the buffer
// mid-encode (torn record on the wire). The resend must deep-copy the
// record under the node lock; run under -race this test trips on the
// old shallow copy.
//
// Topology: two nodes over real TCP, the remote owner dropping the
// first ack of every insert so every remote record is retransmitted at
// least once, while concurrent producers keep the engine's record pool
// churning through frame parses.
func TestRetransmitRecycleRace(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and timers")
	}
	clock := transport.RealClock{}
	mkCfg := func(seed int64) mind.Config {
		cfg := mind.DefaultConfig(seed)
		cfg.Overlay.HeartbeatInterval = 300 * time.Millisecond
		cfg.Overlay.FailAfter = 5 * time.Second
		cfg.Overlay.JoinTimeout = 2 * time.Second
		cfg.InsertTimeout = 10 * time.Second
		cfg.QueryTimeout = 10 * time.Second
		// Aggressive retransmission: the dropped first acks force one
		// resend per remote record almost immediately.
		cfg.RetryBase = 2 * time.Millisecond
		cfg.RetryMax = 8 * time.Millisecond
		cfg.MaxRetries = 6
		return cfg
	}

	ep0, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep0.Close()
	ep1raw, err := tcpnet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep1raw.Close()
	ep1 := &ackDropEndpoint{Endpoint: ep1raw, seen: make(map[uint64]bool)}

	node0 := mind.NewNode(ep0, clock, mkCfg(1))
	defer node0.Close()
	node1 := mind.NewNode(ep1, clock, mkCfg(2))
	defer node1.Close()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	node0.Bootstrap()
	node1.Join(ep0.Addr())
	waitFor("join", node1.Joined)

	sch := schema.Index2(1 << 20)
	if err := node0.CreateIndex(sch, nil); err != nil {
		t.Fatal(err)
	}
	waitFor("index flood", func() bool { return node1.HasIndex(sch.Tag) })

	// Block mode so overload never sheds: every offered record must
	// settle, keeping the pool churn (putRec on remote settle, getRec on
	// the next frame) running for the whole test.
	eng := New(node0, Config{
		Shards:      2,
		RingSize:    1 << 10,
		MaxBatch:    32,
		Block:       true,
		SelfAddr:    node0.Addr(),
		NodePending: node0.PendingInserts,
	})
	defer eng.Close()

	const producers, frames, perFrame = 4, 25, 64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			buf := []byte(nil)
			recs := make([][]uint64, perFrame)
			for i := range recs {
				recs[i] = make([]uint64, 5)
			}
			rng := uint64(p)*0x9e3779b97f4a7c15 + 1
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			for fi := 0; fi < frames; fi++ {
				for i := range recs {
					recs[i][0] = next() & 0xffffffff         // dest_prefix
					recs[i][1] = next() % (1 << 20)          // timestamp
					recs[i][2] = next() % schema.OctetsBound // octets
					recs[i][3] = next() & 0xffffffff         // source_prefix
					recs[i][4] = uint64(p)                   // node
				}
				buf = wire.AppendFlowFrame(buf[:0], uint64(fi+1), sch.Tag, 5, recs)
				f, err := wire.ParseFlowFrame(buf)
				if err != nil {
					t.Error(err)
					return
				}
				eng.IngestFrame(&f)
			}
		}(p)
	}
	wg.Wait()

	waitFor("settle", func() bool {
		st := eng.Stats()
		return st.Pending == 0 && st.Queued == 0
	})

	st := eng.Stats()
	const offered = producers * frames * perFrame
	if st.Received != offered || st.Accepted != offered {
		t.Fatalf("received %d accepted %d, offered %d (blocking mode must not shed)", st.Received, st.Accepted, offered)
	}
	if st.Acked+st.Failed != st.Accepted {
		t.Fatalf("settled %d+%d, accepted %d", st.Acked, st.Failed, st.Accepted)
	}
	if st.Failed != 0 {
		t.Fatalf("failed %d inserts: the second ack must always settle", st.Failed)
	}
	// The scenario only bites when retransmissions actually fired while
	// records settled and recycled; make sure the dropped acks forced
	// them.
	if ep1.droppedAcks() == 0 {
		t.Fatal("no acks dropped: no record routed to the remote node")
	}
	if rt := node0.Stats().Retransmits; rt == 0 {
		t.Fatal("no retransmissions fired: the race window was never exercised")
	}
	t.Logf("retransmit/recycle churn: %d records, %d acks dropped, %d retransmits",
		offered, ep1.droppedAcks(), node0.Stats().Retransmits)
}
