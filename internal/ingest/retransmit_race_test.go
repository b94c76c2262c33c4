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

// ackDropEndpoint wraps a transport endpoint and swallows the FIRST ack
// sent for every request id — from a bare ack run, or one riding in an
// envelope (either re-encoded without it) — exactly the loss the
// transport contract permits. The originator's batch-group retransmission
// schedule then has to re-send every remote record at least once, while
// the second (dedup-hit) ack settles it concurrently.
type ackDropEndpoint struct {
	transport.Endpoint
	mu      sync.Mutex
	seen    map[uint64]bool
	dropped int
}

// keep strips from data, one encoded message, the acks of request ids
// seen for the first time (booking them) and returns what is left to
// send — nil when nothing is — and whether anything was stripped.
func (e *ackDropEndpoint) keep(data []byte) ([]byte, bool) {
	if len(data) == 0 || wire.Kind(data[0]) != wire.KindInsertAck {
		return data, false
	}
	m, err := wire.Decode(data)
	if err != nil {
		return data, false
	}
	acks := m.(*wire.InsertAcks)
	kept := &wire.InsertAcks{StoredAt: acks.StoredAt}
	e.mu.Lock()
	acks.Rows.EachRow(func(row []uint64) {
		reqID, hops := wire.AckRow(row)
		if e.seen[reqID] {
			kept.Append(reqID, hops)
			return
		}
		e.seen[reqID] = true
		e.dropped++
	})
	e.mu.Unlock()
	switch kept.Rows.Len() {
	case acks.Rows.Len():
		return data, false
	case 0:
		return nil, true
	}
	return wire.Encode(kept), true
}

func (e *ackDropEndpoint) Send(to string, msg []byte) error {
	msg, _ = e.keep(msg)
	if msg == nil {
		return nil
	}
	if m, err := wire.Decode(msg); err == nil {
		if env, ok := m.(*wire.Batch); ok {
			var kept [][]byte
			stripped := false
			for _, sub := range env.Msgs {
				sub, s := e.keep(sub)
				stripped = stripped || s
				if sub != nil {
					kept = append(kept, sub)
				}
			}
			if len(kept) == 0 {
				return nil
			}
			if stripped {
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
// insertOp's record aliases the engine's record chunk, and a
// member that settles while resendInsertGroup is encoding its
// retransmission used to let a new producer overwrite the record
// mid-encode (torn record on the wire). The resend must deep-copy the
// record under the node lock; run under -race this test trips on the
// old shallow copy.
//
// Topology: two nodes over real TCP, the remote owner dropping the
// first ack of every insert so every remote record is retransmitted at
// least once, while concurrent producers keep the engine's record chunks
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
		// resend per remote record almost immediately. The budget is
		// counted in retries that together outlast the insert timeout,
		// not in wall time: however slowly a loaded host delivers the
		// second ack, the group keeps resending until it settles, and
		// only an insert that would time out anyway runs out of retries.
		cfg.RetryBase = 2 * time.Millisecond
		cfg.RetryMax = 8 * time.Millisecond
		cfg.MaxRetries = int(cfg.InsertTimeout / cfg.RetryMax)
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
	// settle, keeping the chunk churn (a chunk released once its records
	// settle, reused by the next frames) running for the whole test. Batches of 32, not
	// maxBatch's 256, make eight times the insert groups, each a chance
	// for its last member to settle and recycle the batch while a resend
	// encodes it. With the shallow copy on a 2-vCPU host, 256 tripped
	// the race detector in 3 of 8 runs and 32 in 11 of 12.
	defer func(b int) { maxBatch = b }(maxBatch)
	maxBatch = 32
	eng := New(node0, Config{
		Shards:      2,
		RingSize:    1 << 10,
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
