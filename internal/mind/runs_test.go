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
func insertOne(origin, tag string, epoch, reqID uint64, target bitstr.Code, rec []uint64) *wire.InsertRun {
	m := &wire.InsertRun{OriginAddr: origin, Index: tag, TreeEpoch: epoch}
	m.Append(reqID, target, 0, rec)
	return m
}

// replicateOne is a replicate run of one record.
func replicateOne(tag string, rec []uint64, owner bitstr.Code) *wire.ReplicateRun {
	m := &wire.ReplicateRun{Index: tag, OwnerCode: owner}
	m.Recs.AppendRow(rec)
	return m
}

// insertRows is what an insert run carries, a slice per column: each
// record's ReqID, target, hop count and values (copies).
type insertRows struct {
	ids     []uint64
	targets []bitstr.Code
	hops    []uint8
	recs    []schema.Record
}

// rowsOf decodes an insert run's rows.
func rowsOf(m *wire.InsertRun) insertRows {
	var out insertRows
	m.Rows.EachRow(func(row []uint64) {
		id, target, hops, rec := wire.InsertRow(row)
		out.ids, out.targets, out.hops = append(out.ids, id), append(out.targets, target), append(out.hops, hops)
		out.recs = append(out.recs, append(schema.Record{}, rec...))
	})
	return out
}

// ackedIDs decodes an ack run's ReqIDs.
func ackedIDs(m *wire.InsertAcks) []uint64 {
	var ids []uint64
	m.Rows.EachRow(func(row []uint64) {
		id, _ := wire.AckRow(row)
		ids = append(ids, id)
	})
	return ids
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
// leaves with its ReqID, Target and values, one hop further.
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
		in.Append(uint64(100+i), targets[i%2], uint8(1+i), rec)
	}
	sent := rowsOf(in)
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
		got := rowsOf(out)
		if len(got.recs) != 3 {
			t.Fatalf("run to %s carries %d records, want 3", hops[k], len(got.recs))
		}
		for j := range got.recs {
			i := k + 2*j
			if got.ids[j] != sent.ids[i] || got.targets[j] != targets[k] ||
				got.hops[j] != sent.hops[i]+1 || !reflect.DeepEqual(got.recs[j], recs[i]) {
				t.Errorf("record %d left for %s as (%d, %v, %d hops, %v), want (%d, %v, %d hops, %v)",
					i, hops[k], got.ids[j], got.targets[j], got.hops[j], got.recs[j],
					sent.ids[i], targets[k], sent.hops[i]+1, recs[i])
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
	// A retransmission is a run with Attempt ≥ 1 and the Repeat bit set,
	// as resendInsertGroup sends it.
	send := func(attempt uint8, ids ...int) {
		in := &wire.InsertRun{OriginAddr: "n0", Index: sch.Tag, TreeEpoch: epoch, Attempt: attempt, Repeat: attempt > 0}
		for _, i := range ids {
			in.Append(uint64(500+i), n.Code(), 2, recs[i])
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
			var want []schema.Record
			for _, i := range replicated {
				want = append(want, recs[i])
			}
			if r := runs[0]; !reflect.DeepEqual(r.Recs.Records(), want) || r.OwnerCode != n.Code() {
				t.Errorf("%s: replicated %v to %s, want %v", stage, r.Recs.Records(), to, want)
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
		if a := acks[0]; !reflect.DeepEqual(ackedIDs(a), ids) || a.StoredAt.Addr != n.Addr() {
			t.Errorf("%s: acked %v from %s, want %v from %s", stage, ackedIDs(a), a.StoredAt.Addr, ids, n.Addr())
		}
	}
	send(0, 0, 1, 2)
	check("first run", []int{0, 1, 2}, []int{0, 1, 2})
	send(1, 1, 3)
	check("run with a retransmitted record", []int{3}, []int{1, 3})
	send(2, 2)
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
	if got := rowsOf(ins); !reflect.DeepEqual(got.recs, remote) || !reflect.DeepEqual(got.hops, []uint8{1, 1, 1}) || ins.OriginAddr != "a" {
		t.Errorf("insert run carries %v with hops %v from %s, want %v one hop out of a", got.recs, got.hops, ins.OriginAddr, remote)
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
// records a node stored. A replicate run carries no ids — an owner sends
// a record once and a transport never delivers a frame twice — so a
// frame handed over twice anyway is stored twice, and counted twice.
func TestReplicatedCountsStoredRecords(t *testing.T) {
	_, nodes, _, sch := tapCluster(t, 4)
	n, owner := nodes[2], nodes[1].Code()
	m := &wire.ReplicateRun{Index: sch.Tag, OwnerCode: owner}
	for i := uint64(0); i < 3; i++ {
		m.Recs.AppendRow([]uint64{i, i * 7, 3})
	}
	frame := wire.Encode(m)
	n.dispatch("n1", frame)
	n.dispatch("n1", frame)
	got, stored := n.Stats().Replicated, n.ReplicaRecords(sch.Tag)
	if stored != 6 || got != uint64(stored) {
		t.Fatalf("Replicated = %d, replica store holds %d; want both 6", got, stored)
	}
}
