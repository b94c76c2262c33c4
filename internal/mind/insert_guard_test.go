package mind

import (
	"testing"

	"mind/internal/bitstr"
	"mind/internal/wire"
)

// TestMalformedRecordsDropped: a record in an insert or replicate run is
// peer-supplied bytes, and only the originator's own records were ever
// arity-checked. One with too few attributes (the store's routing hash
// and the re-homing point computation index past its end) or too many
// (a fixed-stride row would silently truncate it) is a counted drop at
// the two places a wire record enters a store: no panic, nothing
// stored, acked or replicated — whether the target is exact, too
// shallow (re-homed from the record) or stamped with another tree epoch.
func TestMalformedRecordsDropped(t *testing.T) {
	_, nodes, taps, sch := tapCluster(t, 4)
	n, tap := nodes[2], taps[2]
	ix, _ := n.getIndex(sch.Tag)
	epoch := ix.epochOf(0)
	sent := func() int { return len(tap.pieces) + len(tap.answers) + tap.others }
	base := sent()
	want := uint64(0)
	for name, rec := range map[string][]uint64{"short": {1, 2}, "long": {1, 2, 3, 4}, "empty": nil} {
		for _, target := range []bitstr.Code{n.Code(), bitstr.Empty} {
			for _, ep := range []uint64{epoch, epoch + 1} {
				n.dispatch("n0", wire.Encode(insertOne("n0", sch.Tag, ep, 5, target, rec)))
				want++
			}
		}
		n.dispatch("n0", wire.Encode(replicateOne(sch.Tag, rec, nodes[0].Code())))
		want++
		if got := sent() - base; got != 0 {
			t.Fatalf("%s record produced %d messages", name, got)
		}
	}
	if got := n.Stats().DroppedRecords; got != want {
		t.Errorf("DroppedRecords = %d after %d malformed records", got, want)
	}
	if s, r := n.StoredRecords(sch.Tag), n.ReplicaRecords(sch.Tag); s != 0 || r != 0 {
		t.Errorf("malformed records stored: %d primary, %d replica", s, r)
	}
	// The same messages well-formed are stored, replicated and acked.
	good := []uint64{1, 2, 3}
	n.dispatch("n0", wire.Encode(insertOne("n0", sch.Tag, epoch, 6, n.Code(), good)))
	n.dispatch("n0", wire.Encode(replicateOne(sch.Tag, good, nodes[0].Code())))
	if s, r := n.StoredRecords(sch.Tag), n.ReplicaRecords(sch.Tag); s != 1 || r != 1 {
		t.Errorf("well-formed records: %d primary, %d replica, want 1 and 1", s, r)
	}
	if got := sent() - base; got < 2 {
		t.Errorf("well-formed insert produced %d messages, want an ack and a replica", got)
	}
	if got := n.Stats().DroppedRecords; got != want {
		t.Errorf("DroppedRecords moved to %d on well-formed records", got)
	}
}
