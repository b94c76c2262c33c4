package mind

import (
	"testing"
	"time"

	"mind/internal/transport/simnet"
	"mind/internal/wire"
)

// Tests for the repairs' write path (rehome.go): every re-insert leaves
// through sendInserts as one group per call and index, so it is acked
// and retransmitted like any other insert.

// dropFirstInsert makes tap swallow the first frame carrying an insert
// run, which to its sender looks like loss in transit; it reports how
// many frames it swallowed.
func dropFirstInsert(tap *frameTap) *int {
	dropped := new(int)
	tap.drop = func(_ string, carries map[wire.Kind]int) bool {
		if carries[wire.KindInsert] > 0 && *dropped == 0 {
			*dropped++
			return true
		}
		return false
	}
	return dropped
}

// TestRecallRetransmission: a region recall's re-insert run lost once on
// the wire still reaches the region's owner by retransmission, and the
// recalling holder receives the acks. The recalled copies are repeats of
// records the owner still holds, so they are acked but not stored again.
func TestRecallRetransmission(t *testing.T) {
	net, a, b, ta, _, sch := tapPair(t)
	const nrecs = 12
	for i, res := range insertBatchSettled(t, net, a, sch.Tag, ownedRecs(t, a, sch.Tag, 71, false, nrecs)) {
		if !res.OK || res.StoredAt != "b" {
			t.Fatalf("record %d: %+v", i, res)
		}
	}
	net.RunFor(time.Second) // the owner's replicas land at a
	if got := a.ReplicaRecords(sch.Tag); got != nrecs {
		t.Fatalf("a holds %d replicas, want %d", got, nrecs)
	}
	acks, hits := a.Stats().AcksReceived, b.Stats().DedupHits
	dropped := dropFirstInsert(ta)

	// a recalls b's region: its replicas go back to b under fresh ids.
	a.handleRegionRecall(&wire.RegionRecall{OpID: 1 << 40, Region: b.Code()})
	if *dropped != 1 {
		t.Fatalf("%d insert frames dropped, want the recall's one run", *dropped)
	}
	if p := a.PendingInserts(); p != nrecs {
		t.Fatalf("PendingInserts = %d after the recall, want its %d re-inserts", p, nrecs)
	}
	net.RunFor(10 * time.Second)
	if got := b.StoredRecords(sch.Tag); got != nrecs {
		t.Errorf("b stores %d records, want its %d: the recalled copies collapse onto them", got, nrecs)
	}
	if got := b.Stats().DedupHits - hits; got != nrecs {
		t.Errorf("b counted %d dedup hits for the recall, want %d", got, nrecs)
	}
	if got := a.Stats().AcksReceived - acks; got != nrecs {
		t.Errorf("a received %d acks for the recall, want %d", got, nrecs)
	}
	if st := a.Stats(); st.Retransmits != nrecs || a.PendingInserts() != 0 {
		t.Errorf("%d retransmissions, %d still pending; want one resend of each re-insert and none pending", st.Retransmits, a.PendingInserts())
	}
}

// TestSplitTransferRetransmission: in TransferOnSplit mode the split
// target's push of the joiner's records, lost once on the wire, still
// reaches the joiner by retransmission and is acked to the split target.
func TestSplitTransferRetransmission(t *testing.T) {
	net := simnet.New(simnet.Config{Seed: 5, DefaultLatency: 5 * time.Millisecond})
	mk := func(addr string, seed int64) (*Node, *frameTap) {
		ep, err := net.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		tap := &frameTap{Endpoint: ep, total: make(map[string]int), frames: make(map[tapKey]int), msgs: make(map[tapKey]int)}
		cfg := DefaultConfig(seed)
		cfg.TransferOnSplit = true
		n := NewNode(tap, net.Clock(), cfg)
		t.Cleanup(n.Close)
		return n, tap
	}
	a, ta := mk("a", 1)
	b, _ := mk("b", 2)
	a.Bootstrap()
	sch := poolTestSchema()
	if err := a.CreateIndex(sch, nil); err != nil {
		t.Fatal(err)
	}
	const nrecs = 40
	for i, res := range insertBatchSettled(t, net, a, sch.Tag, envelopeRecs(72, nrecs)) {
		if !res.OK || res.StoredAt != "a" {
			t.Fatalf("record %d: %+v", i, res)
		}
	}
	dropped := dropFirstInsert(ta)

	b.Join("a")
	if !net.RunUntil(b.Joined, 1_000_000) {
		t.Fatal("b never joined")
	}
	if *dropped != 1 {
		t.Fatalf("%d insert frames dropped, want the split push's one run", *dropped)
	}
	pushed := a.PendingInserts()
	if pushed == 0 || pushed == nrecs {
		t.Fatalf("%d of %d records pushed at the split, want a share", pushed, nrecs)
	}
	net.RunFor(10 * time.Second)
	if got := b.StoredRecords(sch.Tag); got != pushed {
		t.Errorf("b stores %d records, want the %d pushed", got, pushed)
	}
	if got := a.StoredRecords(sch.Tag); got != nrecs-pushed {
		t.Errorf("a keeps %d records, want the %d it did not push", got, nrecs-pushed)
	}
	if st := a.Stats(); st.AcksReceived != uint64(pushed) || st.Retransmits != uint64(pushed) || a.PendingInserts() != 0 {
		t.Errorf("%d acks, %d retransmissions, %d pending; want %d, %d and 0", st.AcksReceived, st.Retransmits, a.PendingInserts(), pushed, pushed)
	}
}
