package mind

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"mind/internal/bitstr"
	"mind/internal/schema"
	"mind/internal/wire"
)

// Planted duplicates, one test per overlap source (DESIGN.md §4c). A
// covering record answer is admitted by its cover and spliced whole, so
// every way one record can reach an originator twice, or be stored
// twice, must collapse where it arises: overlapping covers at the
// engine's admission rule, answers that claim no group coverage by
// content id at the originator, repeats at the owner's store and a
// replica store's two copies at the fail-over responder.

// openQuery is a record query over rect from nodes[0] that no remote
// region answers on its own: every piece the originator sends is
// swallowed. It returns the op's request id, its one group's versions,
// one region still missing (its largest) and a func that answers the
// other missing regions empty, and where the delivered result lands.
func openQuery(t *testing.T, nodes []*Node, taps []*pieceTap, tag string, rect schema.Rect) (uint64, []uint64, bitstr.Code, func(), *QueryResult) {
	t.Helper()
	n := nodes[0]
	taps[0].drop = func(string, *piece) bool { return true }
	res := new(QueryResult)
	if err := n.Query(tag, rect, func(r QueryResult) { *res = r }); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for id, op := range n.scatters {
		if len(op.groups) != 1 {
			t.Fatalf("%d version groups, want one", len(op.groups))
		}
		g := op.groups[0]
		missing := g.cover.MissingRegions(g.tree, op.clamped, g.region, 64)
		slices.SortFunc(missing, func(x, y bitstr.Code) int { return x.Len() - y.Len() })
		if len(missing) == 0 {
			t.Fatal("nothing left to answer; topology too small for this test")
		}
		rest := func() {
			for _, region := range missing[1:] {
				forge(n, id, "rest", true, region, g.versions)
			}
		}
		return id, g.versions, missing[0], rest, res
	}
	t.Fatal("no op in flight")
	return 0, nil, bitstr.Empty, nil, nil
}

// forge hands n an answer to reqID from a responder: cover claimed
// (hasCover) for versions, carrying recs.
func forge(n *Node, reqID uint64, from string, hasCover bool, cover bitstr.Code, versions []uint64, recs ...schema.Record) {
	m := &wire.QueryResp{ReqID: reqID, From: wire.NodeInfo{Addr: from}, HasCover: hasCover, Cover: cover, Versions: versions}
	for _, rec := range recs {
		m.Recs.Append(rec)
	}
	n.handleAnswer(answerFromQueryResp(m))
}

// oneDay is a rectangle inside version 0 of the pool-test index; twoDays
// spans versions 0 and 1, which embed with one tree.
var (
	oneDay  = schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{9999, 86399, 9999}}
	twoDays = schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{9999, 86400, 9999}}
)

// A, B, C and D are four distinct pool-test records.
var recA, recB, recC, recD = schema.Record{1, 10, 100}, schema.Record{2, 20, 200}, schema.Record{3, 30, 300}, schema.Record{4, 40, 400}

// wantRecords fails t unless the op delivered complete with exactly recs,
// in order.
func wantRecords(t *testing.T, res *QueryResult, recs ...schema.Record) {
	t.Helper()
	if !res.Complete {
		t.Fatalf("query not complete: %+v", res)
	}
	if !reflect.DeepEqual(res.Records, recs) {
		t.Fatalf("delivered %v, want %v", res.Records, recs)
	}
}

// TestOverlapRetransmissionRace: a re-issued region's answer racing the
// first attempt's is a second covering answer for the same cover. The
// engine drops it, and counts it.
func TestOverlapRetransmissionRace(t *testing.T) {
	_, nodes, taps, sch := tapCluster(t, 4)
	n := nodes[0]
	reqID, versions, region, rest, res := openQuery(t, nodes, taps, sch.Tag, oneDay)
	left, right := region.Append(0), region.Append(1)
	forge(n, reqID, "n1", true, left, versions, recA, recB)
	forge(n, reqID, "n2", true, left, versions, recA, recB)
	forge(n, reqID, "n3", true, right, versions, recC)
	rest()
	wantRecords(t, res, recA, recB, recC)
	if got := n.Stats().CoverDropped; got != 1 {
		t.Fatalf("CoverDropped = %d, want the repeated answer", got)
	}
}

// TestOverlapReplicaFailover: a replica holder serving a region whose
// owner it believes dead claims the whole region, while the owner's own
// answer for part of it has already been admitted. A cover containing
// accepted coverage is dropped; the rest of the region is re-asked.
func TestOverlapReplicaFailover(t *testing.T) {
	_, nodes, taps, sch := tapCluster(t, 4)
	n := nodes[0]
	reqID, versions, region, rest, res := openQuery(t, nodes, taps, sch.Tag, oneDay)
	left := region.Append(0)
	forge(n, reqID, "owner", true, left.Append(0), versions, recA)
	forge(n, reqID, "replica", true, left, versions, recA, recB) // fail-over for the whole of left
	forge(n, reqID, "owner2", true, left.Append(1), versions, recB)
	forge(n, reqID, "n3", true, region.Append(1), versions)
	rest()
	wantRecords(t, res, recA, recB)
	if got := n.Stats().CoverDropped; got != 1 {
		t.Fatalf("CoverDropped = %d, want the fail-over answer", got)
	}
}

// TestOverlapHistoryDelegation: a node inside its history window answers
// its region without a cover and its split sibling answers it with one;
// a record that reached both (a retransmission racing the split) comes
// back from each. The answer without a cover switches the op to content
// ids, hashing the covering answer spliced before it.
func TestOverlapHistoryDelegation(t *testing.T) {
	_, nodes, taps, sch := tapCluster(t, 4)
	n := nodes[0]
	reqID, versions, region, rest, res := openQuery(t, nodes, taps, sch.Tag, oneDay)
	left := region.Append(0)
	forge(n, reqID, "sibling", true, left, versions, recA, recB)
	forge(n, reqID, "joiner", false, left, versions, recB, recC)
	forge(n, reqID, "n3", true, region.Append(1), versions, recD)
	rest()
	wantRecords(t, res, recA, recB, recC, recD)
}

// TestOverlapVersionSubset: an answer naming a strict subset of its
// group's versions claims no coverage but its records are merged; a
// covering answer for the group may repeat them.
func TestOverlapVersionSubset(t *testing.T) {
	_, nodes, taps, sch := tapCluster(t, 4)
	n := nodes[0]
	reqID, versions, region, rest, res := openQuery(t, nodes, taps, sch.Tag, twoDays)
	if len(versions) != 2 {
		t.Fatalf("group versions %v, want two", versions)
	}
	left := region.Append(0)
	forge(n, reqID, "stale", true, left, versions[:1], recA)
	forge(n, reqID, "n1", true, left, versions, recA, recB)
	forge(n, reqID, "n3", true, region.Append(1), versions, recC)
	rest()
	wantRecords(t, res, recA, recB, recC)
}

// ownerTarget returns rec's version, the epoch of its tree and the code
// that tree places it at, as a's originator side computes them.
func ownerTarget(t *testing.T, a *Node, tag string, rec schema.Record) (v uint32, epoch uint64, target bitstr.Code) {
	t.Helper()
	ix, _ := a.getIndex(tag)
	v = ix.version(rec, a.cfg.VersionSeconds)
	tree, epoch := ix.treeAndEpoch(v)
	return v, epoch, tree.PointCode(rec.PointInto(ix.sch, nil), clampDepth(a.ov.Code().Len()+a.cfg.InsertDepthSlack))
}

// TestOverlapRecallCopies: after a takeover every replica holder
// re-inserts the copies it keeps of the adopted region, so one record
// reaches its new owner once per holder, under fresh ReqIDs. The
// re-inserts are repeats: the owner stores the first and acks the rest,
// and replicates once. Two byte-identical records a client inserts are
// not repeats — both are stored, and a query returns both.
func TestOverlapRecallCopies(t *testing.T) {
	net, a, b, _, _, sch := tapPair(t)
	x := ownedRecs(t, a, sch.Tag, 81, false, 2)
	y := x[1]
	v, epoch, target := ownerTarget(t, a, sch.Tag, x[0])
	hits := b.Stats().DedupHits
	for holder := 0; holder < 2; holder++ {
		a.sendRepairs(sch.Tag, []insertOp{a.repairInsert(v, epoch, x[0], target)})
	}
	net.RunFor(5 * time.Second)
	if got := b.StoredRecords(sch.Tag); got != 1 {
		t.Fatalf("owner stores %d copies of one recalled record, want 1", got)
	}
	if got := b.Stats().DedupHits - hits; got != 1 {
		t.Fatalf("owner counted %d dedup hits, want the second copy", got)
	}
	if p, r := a.PendingInserts(), a.ReplicaRecords(sch.Tag); p != 0 || r != 1 {
		t.Fatalf("%d re-inserts pending, %d replicas at a; want both acked and one replica", p, r)
	}

	for i, res := range insertBatchSettled(t, net, a, sch.Tag, []schema.Record{y, y}) {
		if !res.OK || res.StoredAt != "b" {
			t.Fatalf("client insert %d: %+v", i, res)
		}
	}
	if got := b.StoredRecords(sch.Tag); got != 3 {
		t.Fatalf("owner stores %d records, want the recalled one and both client copies", got)
	}
	var res QueryResult
	if err := a.Query(sch.Tag, oneDay, func(r QueryResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	net.RunFor(5 * time.Second)
	count := map[string]int{}
	for _, rec := range res.Records {
		count[fmt.Sprint(rec)]++
	}
	if !res.Complete || len(res.Records) != 3 || count[fmt.Sprint(x[0])] != 1 || count[fmt.Sprint(y)] != 2 {
		t.Fatalf("query returned %v (complete %v), want the recalled record once and the client's twice", res.Records, res.Complete)
	}
}

// TestOverlapReplicaStoreCopies: a replica store keeps what every owner
// it backs up sent it, so after a repair moved a record it can hold the
// old owner's copy and the new owner's. A fail-over answer returns the
// record once.
func TestOverlapReplicaStoreCopies(t *testing.T) {
	_, a, b, _, _, sch := tapPair(t)
	x := ownedRecs(t, a, sch.Tag, 82, false, 1)[0]
	v, _, _ := ownerTarget(t, a, sch.Tag, x)
	for _, owner := range []bitstr.Code{b.Code(), b.Code().Append(1)} {
		run := &wire.ReplicateRun{Index: sch.Tag, Version: v, OwnerCode: owner}
		run.Recs.Append(x)
		a.handleReplicateRun(run)
	}
	if got := a.ReplicaRecords(sch.Tag); got != 2 {
		t.Fatalf("a holds %d replica copies, want 2", got)
	}
	ix, _ := a.getIndex(sch.Tag)
	p := piece{kind: recordKind{}, index: sch.Tag, versions: []uint64{uint64(v)}, rect: oneDay, region: b.Code()}
	m := recordKind{}.resolve(a, ix, p, answer{hasCover: true, cover: b.Code()}, true).(*wire.QueryResp)
	if got := m.Recs.Records(); !reflect.DeepEqual(got, []schema.Record{x}) {
		t.Fatalf("fail-over answer carries %v, want the record once", got)
	}
}

// deliverAttempt hands owner attempt of the insert of rec under reqID,
// as a's originator would send it.
func deliverAttempt(t *testing.T, a, owner *Node, tag string, reqID uint64, rec schema.Record, attempt int) {
	t.Helper()
	v, epoch, target := ownerTarget(t, a, tag, rec)
	op := insertOp{reqID: reqID, version: v, epoch: epoch, rec: rec, target: target}
	r := op.inflight(a.ep.Addr(), tag, attempt)
	ob := &outbox{n: owner}
	owner.routeInsert(&r, ob)
	ob.flush()
}

// TestOverlapRotatedRetransmission: an owner's ReqID dedup set holds
// repeats only, so a retransmission of a stored original finds no id and
// is caught by the repeat bit alone: the retransmitted record is
// byte-identical to the stored first copy, and is acked but not stored
// again.
func TestOverlapRotatedRetransmission(t *testing.T) {
	_, a, b, _, _, sch := tapPair(t)
	recs := ownedRecs(t, a, sch.Tag, 83, false, 3)
	ix, _ := b.getIndex(sch.Tag)
	deliver := func(reqID uint64, rec schema.Record, attempt int) {
		deliverAttempt(t, a, b, sch.Tag, reqID, rec, attempt)
	}
	for i, rec := range recs {
		deliver(uint64(100+i), rec, 0)
	}
	if n := ix.reqSeen.seen.Len(); n != 0 {
		t.Fatalf("dedup set remembers %d ids of originals, want none", n)
	}
	hits := b.Stats().DedupHits
	deliver(100, recs[0], 1)
	if got := b.StoredRecords(sch.Tag); got != len(recs) {
		t.Fatalf("owner stores %d records after the retransmission, want %d", got, len(recs))
	}
	if got := b.Stats().DedupHits - hits; got != 1 {
		t.Fatalf("owner counted %d dedup hits, want the retransmission", got)
	}
}

// TestOverlapOvertakingRetransmission: a retransmission leaves through
// another first hop (hypercube.Route), so it can reach the owner before
// the delayed first attempt. The first attempt is no repeat, so no
// content probe runs for it; the ReqID both attempts carry is what the
// owner dedups it on: one copy stored, one dedup hit.
func TestOverlapOvertakingRetransmission(t *testing.T) {
	_, a, b, _, _, sch := tapPair(t)
	x := ownedRecs(t, a, sch.Tag, 87, false, 1)[0]
	hits := b.Stats().DedupHits
	deliverAttempt(t, a, b, sch.Tag, 300, x, 1)
	deliverAttempt(t, a, b, sch.Tag, 300, x, 0)
	if got := b.StoredRecords(sch.Tag); got != 1 {
		t.Fatalf("owner stores %d copies after both attempts, want 1", got)
	}
	if got := b.Stats().DedupHits - hits; got != 1 {
		t.Fatalf("owner counted %d dedup hits, want the late first attempt", got)
	}
}

// TestRepeatDedupOutlivesBulk: the owner's ReqID set counts repeats
// only, so a stored retransmission stays remembered however many
// originals follow it: more than its two generations hold do not push it
// out, and the delayed first attempt arriving after them is still
// dropped as a dedup hit.
func TestRepeatDedupOutlivesBulk(t *testing.T) {
	_, a, b, _, _, sch := tapPair(t)
	x := ownedRecs(t, a, sch.Tag, 89, false, 1)[0]
	ix, _ := b.getIndex(sch.Tag)
	v, _, _ := ownerTarget(t, a, sch.Tag, x)
	deliverAttempt(t, a, b, sch.Tag, 400, x, 1)
	for i, rec := range envelopeRecs(90, 2*(dedupCap/2)+1) {
		if !ix.storeRecord(v, uint64(1_000_000+i), rec, false) {
			t.Fatalf("original %d under a fresh id dropped", i)
		}
	}
	stored, hits := b.StoredRecords(sch.Tag), b.Stats().DedupHits
	deliverAttempt(t, a, b, sch.Tag, 400, x, 0)
	if got := b.StoredRecords(sch.Tag) - stored; got != 0 {
		t.Fatalf("owner stored the late first attempt %d times, want 0", got)
	}
	if got := b.Stats().DedupHits - hits; got != 1 {
		t.Fatalf("owner counted %d dedup hits, want the late first attempt", got)
	}
}

// TestOverlapAbsorbedReplicas: a takeover absorbs the dead region's
// replicas into primary storage. The replica store can hold one record
// twice (two owners' copies) and the primary store may hold it already
// (a recall's re-insert that arrived first); absorbed records are
// repeats, stored once.
func TestOverlapAbsorbedReplicas(t *testing.T) {
	_, a, b, _, _, sch := tapPair(t)
	recs := ownedRecs(t, a, sch.Tag, 86, false, 2)
	x, y := recs[0], recs[1]
	v, _, _ := ownerTarget(t, a, sch.Tag, x)
	for _, owner := range []bitstr.Code{b.Code(), b.Code().Append(1)} {
		run := &wire.ReplicateRun{Index: sch.Tag, Version: v, OwnerCode: owner}
		run.Recs.Append(x)
		run.Recs.Append(y)
		a.handleReplicateRun(run)
	}
	ix, _ := a.getIndex(sch.Tag)
	ix.primary.Insert(v, y)
	ix.absorbReplicas(b.Code())
	if got := a.StoredRecords(sch.Tag); got != 2 {
		t.Fatalf("a stores %d records after absorbing 4 replica copies of 2, one already stored; want 2", got)
	}
}
