package mind

import (
	"reflect"
	"testing"
	"time"

	"mind/internal/bitstr"
	"mind/internal/schema"
	"mind/internal/wire"
)

// Tests for the write path's runs (batch.go, insert.go): how a node
// splits, stores, replicates and acks the records of one inbound run.

// insertOne is a run of one record, as a peer would send it.
func insertOne(origin, tag string, epoch, reqID, recID uint64, target bitstr.Code, rec []uint64) *wire.InsertRun {
	m := &wire.InsertRun{OriginAddr: origin, Index: tag, TreeEpoch: epoch}
	m.Append(reqID, recID, target, 0, rec)
	return m
}

// replicateOne is a replicate run of one record.
func replicateOne(tag string, recID uint64, rec []uint64, owner bitstr.Code) *wire.ReplicateRun {
	m := &wire.ReplicateRun{Index: tag, OwnerCode: owner, RecIDs: []uint64{recID}}
	m.Recs.Append(rec)
	return m
}

// runsTo returns the runs of type M that tap's node sent to, in order.
func runsTo[M wire.Message](tap *pieceTap, to string) []M {
	var out []M
	for _, w := range tap.writes {
		for _, m := range w.runs {
			if m, ok := m.(M); ok && w.to == to {
				out = append(out, m)
			}
		}
	}
	return out
}

// framesTo counts the write-path frames tap's node sent to.
func framesTo(tap *pieceTap, to string) int {
	n := 0
	for _, w := range tap.writes {
		if w.to == to {
			n++
		}
	}
	return n
}

// TestRunSplitsAcrossNextHops: a forwarding node splits one inbound run
// by next hop into one run per hop, each in one frame, and every record
// leaves with its ReqID, RecID, Target and bytes, one hop further.
func TestRunSplitsAcrossNextHops(t *testing.T) {
	net, nodes, taps, sch := tapCluster(t, 8)
	// A forwarder with two codes it does not own behind different hops.
	var fwd int
	var targets [2]bitstr.Code
	var hops [2]string
	for i, n := range nodes {
		k := 0
		for _, m := range nodes {
			if k == 2 || n.ov.Owns(m.Code()) {
				continue
			}
			hop, ok := n.ov.NextHop(m.Code())
			if ok && (k == 0 || hop != hops[0]) {
				targets[k], hops[k] = m.Code(), hop
				k++
			}
		}
		if k == 2 {
			fwd = i
			break
		}
	}
	if hops[1] == "" {
		t.Fatal("no node with two next hops")
	}
	n, tap := nodes[fwd], taps[fwd]
	ix, _ := n.getIndex(sch.Tag)
	in := &wire.InsertRun{OriginAddr: "elsewhere", Index: sch.Tag, TreeEpoch: ix.epochOf(0)}
	recs := envelopeRecs(31, 6)
	for i, rec := range recs {
		in.Append(uint64(100+i), uint64(200+i), targets[i%2], uint8(1+i), rec)
	}
	before := len(tap.writes)
	n.dispatch("n9", wire.Encode(in))
	tap.writes = tap.writes[before:]

	for k := range hops {
		if f := framesTo(tap, hops[k]); f != 1 {
			t.Errorf("%d frames to next hop %s, want 1", f, hops[k])
		}
		runs := runsTo[*wire.InsertRun](tap, hops[k])
		if len(runs) != 1 {
			t.Fatalf("%d insert runs to %s, want 1", len(runs), hops[k])
		}
		out := runs[0]
		if out.OriginAddr != in.OriginAddr || out.Index != in.Index || out.TreeEpoch != in.TreeEpoch || out.Attempt != in.Attempt {
			t.Errorf("run to %s changed its header: %+v", hops[k], out)
		}
		got := out.Recs.Records()
		if len(got) != 3 {
			t.Fatalf("run to %s carries %d records, want 3", hops[k], len(got))
		}
		for j := range got {
			i := k + 2*j
			if out.ReqIDs[j] != in.ReqIDs[i] || out.RecIDs[j] != in.RecIDs[i] || out.Targets[j] != targets[k] ||
				out.Hops[j] != in.Hops[i]+1 || !reflect.DeepEqual(got[j], recs[i]) {
				t.Errorf("record %d left for %s as (%d, %d, %v, %d hops, %v), want (%d, %d, %v, %d hops, %v)",
					i, hops[k], out.ReqIDs[j], out.RecIDs[j], out.Targets[j], out.Hops[j], got[j],
					in.ReqIDs[i], in.RecIDs[i], targets[k], in.Hops[i]+1, recs[i])
			}
		}
	}
	if st := n.Stats(); st.Forwarded != 6 {
		t.Errorf("Forwarded = %d, want one per record", st.Forwarded)
	}
	net.RunFor(time.Second)
	stored := 0
	for _, m := range nodes {
		stored += m.StoredRecords(sch.Tag)
	}
	if stored != len(recs) {
		t.Errorf("%d records stored downstream, want %d", stored, len(recs))
	}
}

// TestReplicaRunCarriesNewRecordsOnly: the owner replicates, in one run
// per replica target, exactly the records it newly stored; a
// retransmitted duplicate in a later run is acked again but not
// replicated again.
func TestReplicaRunCarriesNewRecordsOnly(t *testing.T) {
	net, nodes, taps, sch := tapCluster(t, 4)
	n, tap := nodes[2], taps[2]
	ix, _ := n.getIndex(sch.Tag)
	epoch := ix.epochOf(0)
	replicas := n.replicaTargets()
	if len(replicas) == 0 {
		t.Fatal("owner has no replica target")
	}
	recs := envelopeRecs(41, 4)
	send := func(ids ...int) {
		in := &wire.InsertRun{OriginAddr: "n0", Index: sch.Tag, TreeEpoch: epoch}
		for _, i := range ids {
			in.Append(uint64(500+i), uint64(900+i), n.Code(), 2, recs[i])
		}
		tap.writes = nil
		n.dispatch("n0", wire.Encode(in))
	}
	check := func(stage string, replicated, acked []int) {
		t.Helper()
		for _, to := range replicas {
			runs := runsTo[*wire.ReplicateRun](tap, to)
			if len(replicated) == 0 {
				if len(runs) != 0 {
					t.Errorf("%s: replicated %d runs to %s, want none", stage, len(runs), to)
				}
				continue
			}
			if len(runs) != 1 {
				t.Fatalf("%s: %d replicate runs to %s, want 1", stage, len(runs), to)
			}
			var ids []uint64
			var want []schema.Record
			for _, i := range replicated {
				ids, want = append(ids, uint64(900+i)), append(want, recs[i])
			}
			if r := runs[0]; !reflect.DeepEqual(r.RecIDs, ids) || !reflect.DeepEqual(r.Recs.Records(), want) || r.OwnerCode != n.Code() {
				t.Errorf("%s: replicated %v %v to %s, want %v %v", stage, r.RecIDs, r.Recs.Records(), to, ids, want)
			}
		}
		acks := runsTo[*wire.InsertAcks](tap, "n0")
		if len(acks) != 1 {
			t.Fatalf("%s: %d ack runs, want 1", stage, len(acks))
		}
		var ids []uint64
		for _, i := range acked {
			ids = append(ids, uint64(500+i))
		}
		if a := acks[0]; !reflect.DeepEqual(a.ReqIDs, ids) || a.StoredAt.Addr != n.Addr() {
			t.Errorf("%s: acked %v from %s, want %v from %s", stage, a.ReqIDs, a.StoredAt.Addr, ids, n.Addr())
		}
	}
	send(0, 1, 2)
	check("first run", []int{0, 1, 2}, []int{0, 1, 2})
	send(1, 3)
	check("run with a retransmitted record", []int{3}, []int{1, 3})
	send(2)
	check("retransmission alone", nil, []int{2})
	net.RunFor(time.Second)
	if got := n.StoredRecords(sch.Tag); got != 4 {
		t.Errorf("owner stored %d records, want 4", got)
	}
	if st := n.Stats(); st.DedupHits != 2 {
		t.Errorf("DedupHits = %d, want 2", st.DedupHits)
	}
}

// TestOriginatorMixesOwnedAndForwarded: one InsertBatch whose records
// fall on both nodes of a pair leaves the originator as one frame to the
// peer: an insert run of exactly the peer's records, one hop out, and a
// replicate run of exactly the records the originator stored itself.
func TestOriginatorMixesOwnedAndForwarded(t *testing.T) {
	net, a, b, ta, _, sch := tapPair(t)
	local := ownedRecs(t, a, sch.Tag, 51, true, 3)
	remote := ownedRecs(t, a, sch.Tag, 52, false, 3)
	batch := []schema.Record{remote[0], local[0], local[1], remote[1], local[2], remote[2]}
	var sent []wire.Message
	ta.edit = func(to string, msg []byte) []byte {
		m, err := wire.Decode(msg)
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, writeRuns(m)...)
		return msg
	}
	for i, res := range insertBatchSettled(t, net, a, sch.Tag, batch) {
		if !res.OK {
			t.Fatalf("record %d: %+v", i, res)
		}
	}
	net.RunFor(time.Second)
	if ta.total["b"] != 1 {
		t.Fatalf("originator sent %d frames to its peer, want 1", ta.total["b"])
	}
	if len(sent) != 2 {
		t.Fatalf("the frame carries %d runs, want an insert run and a replicate run", len(sent))
	}
	ins, ok1 := sent[0].(*wire.InsertRun)
	rep, ok2 := sent[1].(*wire.ReplicateRun)
	if !ok1 || !ok2 {
		t.Fatalf("the frame carries %T and %T, want the insert run first (its record came first)", sent[0], sent[1])
	}
	if got := ins.Recs.Records(); !reflect.DeepEqual(got, remote) || !reflect.DeepEqual(ins.Hops, []uint8{1, 1, 1}) || ins.OriginAddr != "a" {
		t.Errorf("insert run carries %v with hops %v from %s, want %v one hop out of a", got, ins.Hops, ins.OriginAddr, remote)
	}
	if got := rep.Recs.Records(); !reflect.DeepEqual(got, local) || rep.OwnerCode != a.Code() {
		t.Errorf("replicate run carries %v from owner %v, want %v from %v", got, rep.OwnerCode, local, a.Code())
	}
	if a.StoredRecords(sch.Tag) != 3 || b.StoredRecords(sch.Tag) != 3 || b.ReplicaRecords(sch.Tag) != 3 {
		t.Errorf("stored %d at a, %d at b, %d replicas at b; want 3 each",
			a.StoredRecords(sch.Tag), b.StoredRecords(sch.Tag), b.ReplicaRecords(sch.Tag))
	}
}

// TestReplicatedCountsStoredRecords: Stats.Replicated counts the replica
// records a node stored, so a replicate run delivered twice — a
// retransmission, or a ring recovery's second delivery — counts its
// records once, as the replica store holds them once.
func TestReplicatedCountsStoredRecords(t *testing.T) {
	_, nodes, _, sch := tapCluster(t, 4)
	n, owner := nodes[2], nodes[1].Code()
	m := &wire.ReplicateRun{Index: sch.Tag, OwnerCode: owner}
	for i := uint64(0); i < 3; i++ {
		m.RecIDs = append(m.RecIDs, 500+i)
		m.Recs.Append([]uint64{i, i * 7, 3})
	}
	frame := wire.Encode(m)
	n.dispatch("n1", frame)
	n.dispatch("n1", frame)
	got, stored := n.Stats().Replicated, n.ReplicaRecords(sch.Tag)
	if stored != 3 || got != uint64(stored) {
		t.Fatalf("Replicated = %d, replica store holds %d; want both 3", got, stored)
	}
}
