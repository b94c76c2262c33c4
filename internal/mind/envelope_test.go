package mind

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mind/internal/schema"
	"mind/internal/transport"
	"mind/internal/transport/simnet"
	"mind/internal/wire"
)

// Tests for the envelope-scoped write path (batch.go). The chaos harness
// inserts one record at a time, so it never forms an envelope; these
// drive InsertBatch over simnet and watch every frame a node sends.

// frameTap wraps a node's endpoint and books every write-path frame it
// sends: total frames per destination, and per (destination, kind) the
// frames carrying that kind and the records its runs carry. edit may
// rewrite a frame before anything else sees it (nil swallows it); drop
// may swallow a frame, which to the sender looks like loss in transit.
type frameTap struct {
	transport.Endpoint
	total  map[string]int // write-path frames per destination
	frames map[tapKey]int // frames carrying at least one run of the kind
	msgs   map[tapKey]int // records carried by runs of the kind
	edit   func(to string, msg []byte) []byte
	drop   func(to string, carries map[wire.Kind]int) bool
}

type tapKey struct {
	to   string
	kind wire.Kind
}

func (e *frameTap) Send(to string, msg []byte) error {
	if e.edit != nil {
		// A copy: the sender recycles msg once Send returns, and an edit
		// may keep what it decodes.
		if msg = e.edit(to, bytes.Clone(msg)); msg == nil {
			return nil
		}
	}
	m, err := wire.Decode(msg)
	if err != nil {
		panic(err)
	}
	carries := make(map[wire.Kind]int)
	for _, run := range writeRuns(m) {
		carries[run.Kind()] += runRecords(run)
	}
	if len(carries) > 0 {
		if e.drop != nil && e.drop(to, carries) {
			return nil
		}
		e.total[to]++
		for k, n := range carries {
			e.frames[tapKey{to, k}]++
			e.msgs[tapKey{to, k}] += n
		}
	}
	return e.Endpoint.Send(to, msg)
}

// tapPair boots a two-node overlay (a bootstraps, b joins) with the test
// index installed on both, every send tapped. With two nodes each is the
// other's only replica target, and a record not owned by its origin is
// owned one hop away.
func tapPair(t *testing.T) (net *simnet.Network, a, b *Node, ta, tb *frameTap, sch *schema.Schema) {
	t.Helper()
	return tapPairWith(t, nil, nil)
}

// tapPairWith is tapPair with the config adjusted by mut and a's clock
// wrapped by clockOfA (either may be nil).
func tapPairWith(t *testing.T, clockOfA func(transport.Clock) transport.Clock, mut func(*Config)) (net *simnet.Network, a, b *Node, ta, tb *frameTap, sch *schema.Schema) {
	t.Helper()
	net = simnet.New(simnet.Config{Seed: 5, DefaultLatency: 5 * time.Millisecond})
	mk := func(addr string, seed int64) (*Node, *frameTap) {
		ep, err := net.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		tap := &frameTap{Endpoint: ep, total: make(map[string]int), frames: make(map[tapKey]int), msgs: make(map[tapKey]int)}
		cfg, clock := DefaultConfig(seed), net.Clock()
		if mut != nil {
			mut(&cfg)
		}
		if addr == "a" && clockOfA != nil {
			clock = clockOfA(clock)
		}
		n := NewNode(tap, clock, cfg)
		t.Cleanup(n.Close)
		return n, tap
	}
	a, ta = mk("a", 1)
	b, tb = mk("b", 2)
	a.Bootstrap()
	b.Join("a")
	if !net.RunUntil(b.Joined, 1_000_000) {
		t.Fatal("b never joined")
	}
	sch = poolTestSchema()
	if err := a.CreateIndex(sch, nil); err != nil {
		t.Fatal(err)
	}
	if !net.RunUntil(func() bool { return b.HasIndex(sch.Tag) }, 1_000_000) {
		t.Fatal("index never reached b")
	}
	return
}

func envelopeRecs(seed int64, n int) []schema.Record {
	r := rand.New(rand.NewSource(seed))
	recs := make([]schema.Record, n)
	for i := range recs {
		recs[i] = schema.Record{r.Uint64() % 10000, r.Uint64() % 86401, r.Uint64() % 10000}
	}
	return recs
}

// insertBatchSettled runs one InsertBatch from n to completion.
func insertBatchSettled(t *testing.T, net *simnet.Network, n *Node, tag string, recs []schema.Record) []InsertResult {
	t.Helper()
	var results []InsertResult
	if err := n.InsertBatch(tag, recs, func(rs []InsertResult) { results = rs }); err != nil {
		t.Fatal(err)
	}
	if !net.RunUntil(func() bool { return results != nil }, 10_000_000) {
		t.Fatal("batch never settled")
	}
	return results
}

// TestEnvelopeOneFramePerPeer is the tentpole's contract: however many
// records an envelope carries, the node handling it emits at most one
// frame per replica target and one per origin.
func TestEnvelopeOneFramePerPeer(t *testing.T) {
	net, a, b, ta, tb, sch := tapPair(t)
	const nrecs = 300
	for i, res := range insertBatchSettled(t, net, a, sch.Tag, envelopeRecs(7, nrecs)) {
		if !res.OK || res.Attempts != 0 {
			t.Fatalf("record %d: %+v", i, res)
		}
	}
	net.RunFor(time.Second) // let the last replica envelope land
	local, remote := a.StoredRecords(sch.Tag), b.StoredRecords(sch.Tag)
	if local+remote != nrecs || local == 0 || remote == 0 {
		t.Fatalf("stored %d at origin + %d at peer, want a split of %d", local, remote, nrecs)
	}
	if got := a.ReplicaRecords(sch.Tag) + b.ReplicaRecords(sch.Tag); got != nrecs {
		t.Fatalf("%d replica records, want each of %d exactly once", got, nrecs)
	}
	// The origin: one envelope to its only neighbor, carrying the
	// forwarded Inserts and the Replicates of what it stored itself. The
	// owner, handling that one inbound envelope: one envelope of
	// Replicates to its replica target and one of acks to the origin
	// (here the same peer). Three frames carry 300 records.
	if ta.total["b"] != 1 || tb.total["a"] != 2 {
		t.Errorf("origin sent %d write-path frames, owner %d; want 1 and 2", ta.total["b"], tb.total["a"])
	}
	for _, want := range []struct {
		tap  *frameTap
		key  tapKey
		msgs int
	}{
		{ta, tapKey{"b", wire.KindInsert}, remote},
		{ta, tapKey{"b", wire.KindReplicate}, local},
		{tb, tapKey{"a", wire.KindReplicate}, remote},
		{tb, tapKey{"a", wire.KindInsertAck}, remote},
	} {
		if f, m := want.tap.frames[want.key], want.tap.msgs[want.key]; f != 1 || m != want.msgs {
			t.Errorf("%s→%s kind %d: %d frames carrying %d messages, want 1 carrying %d",
				want.tap.Addr(), want.key.to, want.key.kind, f, m, want.msgs)
		}
	}
	if sa, sb := a.Stats(), b.Stats(); sa.Retransmits+sb.Retransmits+sa.DedupHits+sb.DedupHits != 0 {
		t.Errorf("lossless run retransmitted or deduplicated: %+v %+v", sa, sb)
	}
}

// TestEnvelopeAckLossReacksFromDedup drops exactly the ack envelope: to
// the reliable layer that is N lost datagrams, recovered by one group
// retransmission that the owner absorbs in its dedup set and re-acks —
// no record stored or replicated twice.
func TestEnvelopeAckLossReacksFromDedup(t *testing.T) {
	net, a, b, ta, tb, sch := tapPair(t)
	dropped := 0
	tb.drop = func(to string, carries map[wire.Kind]int) bool {
		if carries[wire.KindInsertAck] > 1 && dropped == 0 {
			dropped++
			return true
		}
		return false
	}
	const nrecs = 120
	results := insertBatchSettled(t, net, a, sch.Tag, envelopeRecs(9, nrecs))
	net.RunFor(time.Second)
	if dropped != 1 {
		t.Fatalf("dropped %d ack envelopes, want 1", dropped)
	}
	remote := b.StoredRecords(sch.Tag)
	if got := a.StoredRecords(sch.Tag) + remote; got != nrecs || remote == 0 {
		t.Fatalf("stored %d records (%d remote), want %d", got, remote, nrecs)
	}
	retried := 0
	for i, res := range results {
		if !res.OK {
			t.Fatalf("record %d: %+v", i, res)
		}
		if res.StoredAt == "b" {
			if res.Attempts != 1 {
				t.Fatalf("record %d acked after %d retransmissions, want 1", i, res.Attempts)
			}
			retried++
		} else if res.Attempts != 0 {
			t.Fatalf("locally stored record %d retransmitted", i)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if retried != remote || sa.Retransmits != uint64(remote) || sb.DedupHits != uint64(remote) {
		t.Fatalf("%d remote records: %d retried, %d retransmits, %d dedup hits", remote, retried, sa.Retransmits, sb.DedupHits)
	}
	if got := a.ReplicaRecords(sch.Tag) + b.ReplicaRecords(sch.Tag); got != nrecs {
		t.Fatalf("%d replica records after the retransmission, want %d", got, nrecs)
	}
	// The retransmission and the re-ack were one envelope each.
	if f := ta.frames[tapKey{"b", wire.KindInsert}]; f != 2 {
		t.Errorf("origin sent %d insert frames, want the original and one group resend", f)
	}
	if f := tb.frames[tapKey{"a", wire.KindInsertAck}]; f != 1 {
		t.Errorf("owner delivered %d ack frames past the dropped one, want 1", f)
	}
	if f := tb.frames[tapKey{"a", wire.KindReplicate}]; f != 1 {
		t.Errorf("owner sent %d replicate frames: a dedup hit must not replicate again", f)
	}
}

// TestEnvelopeEarlyFlush fills an outbox past outboxFlushBytes: the
// groups leave in several bounded envelopes, replicas still ahead of
// acks, and nothing is lost or duplicated across the intermediate
// flushes.
func TestEnvelopeEarlyFlush(t *testing.T) {
	net, a, b, ta, tb, sch := tapPair(t)
	const nrecs = 4000
	for i, res := range insertBatchSettled(t, net, a, sch.Tag, envelopeRecs(11, nrecs)) {
		if !res.OK || res.Attempts != 0 {
			t.Fatalf("record %d: %+v", i, res)
		}
	}
	net.RunFor(time.Second)
	if got := a.StoredRecords(sch.Tag) + b.StoredRecords(sch.Tag); got != nrecs {
		t.Fatalf("stored %d, want %d", got, nrecs)
	}
	if got := a.ReplicaRecords(sch.Tag) + b.ReplicaRecords(sch.Tag); got != nrecs {
		t.Fatalf("%d replica records, want %d", got, nrecs)
	}
	ins := ta.frames[tapKey{"b", wire.KindInsert}]
	if ins < 2 || ins > 8 {
		t.Fatalf("%d insert frames for %d records: want a few bounded envelopes", ins, nrecs)
	}
	// The owner sees several inbound envelopes and may flush early inside
	// one, so it may emit a few frames per peer — but never anything near
	// one per record.
	if f := tb.frames[tapKey{"a", wire.KindInsertAck}]; f > 2*ins {
		t.Fatalf("%d ack frames for %d inbound envelopes", f, ins)
	}
}

// TestEnvelopeRetransmitCountsHopsOnce pins what a retransmitted insert
// reports: every attempt starts from the originator again, so the hop
// count of the attempt that got through does not depend on which entry
// point built the kept message — and a retransmission that finds its
// origin owning the target (takeover) travelled no hop at all.
func TestEnvelopeRetransmitCountsHopsOnce(t *testing.T) {
	net, a, _, ta, _, sch := tapPair(t)
	remote := ownedRecs(t, a, sch.Tag, 13, false, 1)[0]
	// The same record through each entry point; in the N-member batch it
	// rides last, behind members of either owner.
	batch := append(envelopeRecs(14, 7), remote)
	ways := []struct {
		name string
		send func(done func(InsertResult)) error
	}{
		{"Insert", func(done func(InsertResult)) error { return a.Insert(sch.Tag, remote, done) }},
		{"InsertBatch/1", func(done func(InsertResult)) error {
			return a.InsertBatch(sch.Tag, []schema.Record{remote}, func(rs []InsertResult) { done(rs[0]) })
		}},
		{"InsertBatch/N", func(done func(InsertResult)) error {
			return a.InsertBatch(sch.Tag, batch, func(rs []InsertResult) { done(rs[len(rs)-1]) })
		}},
	}

	// First attempt lost on its first hop: the retransmission is one hop
	// from its owner, whoever sent it.
	for _, w := range ways {
		dropped := false
		ta.drop = func(to string, carries map[wire.Kind]int) bool {
			if carries[wire.KindInsert] == 0 || dropped {
				return false
			}
			dropped = true
			return true
		}
		var res *InsertResult
		if err := w.send(func(r InsertResult) { res = &r }); err != nil {
			t.Fatal(err)
		}
		if !net.RunUntil(func() bool { return res != nil }, 10_000_000) {
			t.Fatalf("%s never settled", w.name)
		}
		if !res.OK || res.StoredAt != "b" || res.Attempts != 1 || res.Hops != 1 {
			t.Errorf("%s, first attempt lost: %+v, want one hop to b on retransmission 1", w.name, *res)
		}
	}
	ta.drop = nil

	// Owner dead: every attempt is lost until a takes its region over
	// (≈ 17 s after the kill under the default overlay timing), and the
	// retransmission after that is stored where it starts. Sent 8 s in, the
	// inserts retransmit at least once before the takeover and keep their
	// last retransmission (≈ 17 s after the send) for well after it.
	net.Kill("b")
	net.RunFor(8 * time.Second)
	results := make([]*InsertResult, len(ways))
	for i, w := range ways {
		if err := w.send(func(r InsertResult) { results[i] = &r }); err != nil {
			t.Fatal(err)
		}
	}
	settled := func() bool { return results[0] != nil && results[1] != nil && results[2] != nil }
	if !net.RunUntil(settled, 10_000_000) {
		t.Fatal("inserts toward the dead owner never settled")
	}
	for i, w := range ways {
		if res := results[i]; !res.OK || res.StoredAt != "a" || res.Attempts == 0 || res.Hops != 0 {
			t.Errorf("%s, stored by its origin after takeover: %+v, want a retransmission with 0 hops", w.name, *res)
		}
	}
}

// TestEnvelopeRetransmitsPendingOnly: after a partial ack, the group's
// retransmission resends exactly the members still pending — one run
// per first hop, stamped with the attempt — and nothing already acked.
func TestEnvelopeRetransmitsPendingOnly(t *testing.T) {
	net, a, _, ta, _, sch := tapPair(t)
	remote := ownedRecs(t, a, sch.Tag, 61, false, 8)
	// The first insert run reaches its owner with only its first half:
	// the second half's members stay pending.
	var first, resent *wire.InsertRun
	resends := 0
	ta.edit = func(to string, msg []byte) []byte {
		m, err := wire.Decode(msg)
		if err != nil {
			t.Fatal(err)
		}
		run, ok := m.(*wire.InsertRun)
		if !ok {
			return msg
		}
		if first != nil {
			resent = run
			resends++
			return msg
		}
		first = run
		half := &wire.InsertRun{OriginAddr: run.OriginAddr, Index: run.Index, Version: run.Version, TreeEpoch: run.TreeEpoch}
		rows := rowsOf(run)
		for i := 0; i < 4; i++ {
			half.Append(rows.ids[i], rows.targets[i], rows.hops[i], rows.recs[i])
		}
		return wire.Encode(half)
	}
	results := insertBatchSettled(t, net, a, sch.Tag, remote)
	for i, res := range results {
		if want := min(i/4, 1); !res.OK || res.StoredAt != "b" || res.Attempts != want {
			// Attempts reads the group's count at settle time: the acked
			// half settled before any retransmission.
			t.Errorf("record %d: %+v, want stored at b after %d retransmissions", i, res, want)
		}
	}
	if first == nil || first.Rows.Len() != 8 || first.Attempt != 0 {
		t.Fatalf("first dispatch %+v, want one run of all 8 records", first)
	}
	if resends != 1 || resent.Attempt != 1 {
		t.Fatalf("%d retransmitted runs (last %+v), want one run on attempt 1", resends, resent)
	}
	firstRows, resentRows := rowsOf(first), rowsOf(resent)
	if !reflect.DeepEqual(resentRows.ids, firstRows.ids[4:]) || !reflect.DeepEqual(resentRows.recs, remote[4:]) {
		t.Errorf("retransmission carries %v, want the pending %v", resentRows.ids, firstRows.ids[4:])
	}
	if !reflect.DeepEqual(resentRows.hops, []uint8{1, 1, 1, 1}) {
		t.Errorf("retransmitted hops %v, want one each", resentRows.hops)
	}
}
