package mind

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"mind/internal/bitstr"
	"mind/internal/schema"
	"mind/internal/transport"
	"mind/internal/transport/simnet"
	"mind/internal/wire"
)

// Engine-level tests: each case is a table row per resolver, so a fix
// that lands in the engine is pinned for both kinds at once.

// sentPiece is one piece a node put on the wire.
type sentPiece struct {
	to string
	p  piece
}

// sentWrite is one write-path frame a node put on the wire: its runs.
type sentWrite struct {
	to   string
	runs []wire.Message
}

// pieceTap wraps a node's endpoint and books the scatter-gather traffic
// it sends: pieces (decoded through the resolvers' own wire conversion)
// and answers — and the write-path frames. drop may swallow a piece,
// which to the sender looks like loss in transit.
type pieceTap struct {
	transport.Endpoint
	pieces  []sentPiece
	answers []answer
	others  int
	writes  []sentWrite
	drop    func(to string, p *piece) bool
}

// writeRuns returns the write-path runs a frame's message carries: the
// message itself, or an envelope's runs.
func writeRuns(m wire.Message) []wire.Message {
	msgs := []wire.Message{m}
	if b, ok := m.(*wire.Batch); ok {
		msgs = msgs[:0]
		for _, sub := range b.Msgs {
			if m, err := wire.Decode(sub); err == nil {
				msgs = append(msgs, m)
			}
		}
	}
	var runs []wire.Message
	for _, m := range msgs {
		if runRecords(m) > 0 {
			runs = append(runs, m)
		}
	}
	return runs
}

// pieceOf is the receiving side's view of a request message.
func pieceOf(m wire.Message) (piece, bool) {
	switch m := m.(type) {
	case *wire.Query:
		return pieceFromQuery(m, ""), true
	case *wire.SubQuery:
		return pieceFromSubQuery(m, ""), true
	case *wire.AggQuery:
		return pieceFromAggQuery(m, ""), true
	}
	return piece{}, false
}

func (e *pieceTap) Send(to string, msg []byte) error {
	// A copy: the sender recycles msg once Send returns, and what decodes
	// from it is kept.
	m, err := wire.Decode(bytes.Clone(msg))
	if err != nil {
		panic(err)
	}
	switch m := m.(type) {
	case *wire.QueryResp:
		e.answers = append(e.answers, answerFromQueryResp(m))
	case *wire.AggResp:
		e.answers = append(e.answers, answerFromAggResp(m))
	default:
		if runs := writeRuns(m); runs != nil {
			e.writes = append(e.writes, sentWrite{to, runs})
		}
		p, ok := pieceOf(m)
		if !ok {
			e.others++
		} else if e.drop != nil && e.drop(to, &p) {
			return nil
		} else {
			e.pieces = append(e.pieces, sentPiece{to, p})
		}
	}
	return e.Endpoint.Send(to, msg)
}

// scatterKinds are the table rows: how each resolver starts an operation.
var scatterKinds = []struct {
	name  string
	kind  resolver
	start func(n *Node, tag string, rect schema.Rect, done *bool) error
}{
	{"record", recordKind{}, func(n *Node, tag string, rect schema.Rect, done *bool) error {
		return n.Query(tag, rect, func(QueryResult) { *done = true })
	}},
	{"aggregate", aggKind{}, func(n *Node, tag string, rect schema.Rect, done *bool) error {
		return n.Agg(tag, rect, 4, func(AggResult) { *done = true })
	}},
}

// tapCluster boots a size-node overlay over simnet with the pool-test
// index installed everywhere and every node's sends tapped.
func tapCluster(t *testing.T, size int) (*simnet.Network, []*Node, []*pieceTap, *schema.Schema) {
	t.Helper()
	net := simnet.New(simnet.Config{Seed: 9, DefaultLatency: 5 * time.Millisecond})
	nodes := make([]*Node, size)
	taps := make([]*pieceTap, size)
	for i := range nodes {
		ep, err := net.Endpoint(fmt.Sprintf("n%d", i))
		if err != nil {
			t.Fatal(err)
		}
		taps[i] = &pieceTap{Endpoint: ep}
		nodes[i] = NewNode(taps[i], net.Clock(), DefaultConfig(int64(i+1)))
		t.Cleanup(nodes[i].Close)
		if i == 0 {
			nodes[i].Bootstrap()
		} else {
			nodes[i].Join("n0")
		}
		if !net.RunUntil(nodes[i].Joined, 1_000_000) {
			t.Fatalf("node %d never joined", i)
		}
	}
	sch := poolTestSchema()
	if err := nodes[0].CreateIndex(sch, nil); err != nil {
		t.Fatal(err)
	}
	if !net.RunUntil(func() bool {
		for _, n := range nodes {
			if !n.HasIndex(sch.Tag) {
				return false
			}
		}
		return true
	}, 1_000_000) {
		t.Fatal("index never reached every node")
	}
	net.RunFor(3 * time.Second) // let contact tables fill in
	return net, nodes, taps, sch
}

// TestOriginatorRecordsFirstHops: an originator that decomposes the
// rectangle itself must remember the first hop of every piece it routes
// away, so the re-issue of a region that never answered leaves through a
// different contact when the overlay offers one.
func TestOriginatorRecordsFirstHops(t *testing.T) {
	for _, row := range scatterKinds {
		t.Run(row.name, func(t *testing.T) {
			net, nodes, taps, sch := tapCluster(t, 8)
			rect := schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{9999, 86400, 9999}}

			// An originator with a routed region that has a second exit.
			origin, victim, first, alt := -1, bitstr.Empty, "", ""
			for i, n := range nodes {
				ix, _ := n.getIndex(sch.Tag)
				for _, sub := range ix.tree(0).Decompose(rect, n.Code().Len()) {
					if n.ov.Owns(sub.Code) {
						continue
					}
					hop, _ := n.ov.NextHop(sub.Code)
					if other, detour := n.ov.Route(sub.Code, 0, "", hop); hop != "" && !detour && other != hop && origin < 0 {
						origin, victim, first, alt = i, sub.Code, hop, other
					}
				}
			}
			if origin < 0 {
				t.Fatal("no node has a region with two exits; topology too small for this test")
			}
			n, tap := nodes[origin], taps[origin]
			// Lose the victim region's first attempt.
			tap.drop = func(_ string, p *piece) bool { return p.region.Equal(victim) && p.attempt == 0 }

			var done bool
			if err := row.start(n, sch.Tag, rect, &done); err != nil {
				t.Fatal(err)
			}
			// Dispatch is synchronous: every routed region is on record
			// before the first message is even delivered.
			ix, _ := n.getIndex(sch.Tag)
			n.mu.Lock()
			if len(n.scatters) != 1 {
				t.Fatalf("%d ops in flight, want 1", len(n.scatters))
			}
			for _, op := range n.scatters {
				for _, sub := range ix.tree(0).Decompose(rect, n.Code().Len()) {
					if !n.ov.Owns(sub.Code) && op.retryHops[sub.Code] == "" {
						t.Errorf("region %s routed with no first hop recorded", sub.Code)
					}
				}
				if got := op.retryHops[victim]; got != first {
					t.Errorf("victim %s first hop recorded as %q, want %q", victim, got, first)
				}
			}
			n.mu.Unlock()

			if !net.RunUntil(func() bool { return done }, 10_000_000) {
				t.Fatal("operation never finished")
			}
			var reissued []sentPiece
			for _, sp := range tap.pieces {
				if sp.p.attempt > 0 {
					reissued = append(reissued, sp)
				}
			}
			if len(reissued) != 1 || !reissued[0].p.region.Equal(victim) {
				t.Fatalf("re-issued pieces %+v, want exactly the victim region %s", reissued, victim)
			}
			if reissued[0].to != alt {
				t.Errorf("re-issue left through %s, want %s (first attempt used %s)", reissued[0].to, alt, first)
			}
		})
	}
}

// TestAnswerVersionSubsetDoesNotComplete: coverage is kept per cut tree,
// for all the versions that embed with it at once, so an answer speaks
// for a group only by carrying exactly the group's versions. One that
// names a strict subset — stale, or hostile — must leave the versions it
// omits uncovered.
func TestAnswerVersionSubsetDoesNotComplete(t *testing.T) {
	bodies := map[string]func() wire.Message{
		"record":    func() wire.Message { return &wire.QueryResp{} },
		"aggregate": func() wire.Message { return &wire.AggResp{} },
	}
	for _, row := range scatterKinds {
		t.Run(row.name, func(t *testing.T) {
			_, nodes, taps, sch := tapCluster(t, 4)
			n := nodes[0]
			// Nothing leaves the originator: every remote region stays open.
			taps[0].drop = func(string, *piece) bool { return true }
			// The time range spans versions 0 and 1, both on the base tree.
			rect := schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{9999, 86400, 9999}}
			var done bool
			if err := row.start(n, sch.Tag, rect, &done); err != nil {
				t.Fatal(err)
			}
			open := func() (reqID uint64, versions []uint64, missing []bitstr.Code) {
				n.mu.Lock()
				defer n.mu.Unlock()
				for id, op := range n.scatters {
					if len(op.groups) != 1 || len(op.groups[0].versions) != 2 {
						t.Fatalf("groups %+v, want one group of two versions", op.groups)
					}
					g := op.groups[0]
					return id, g.versions, g.cover.MissingRegions(g.tree, op.clamped, g.region, 64)
				}
				t.Fatal("no op in flight")
				return
			}
			reqID, versions, missing := open()
			if len(missing) == 0 {
				t.Fatal("nothing left to answer; topology too small for this test")
			}
			forge := func(versions []uint64) {
				for _, region := range missing {
					n.handleAnswer(answer{
						reqID: reqID, from: wire.NodeInfo{Addr: "forger"}, hasCover: true,
						cover: region, versions: versions, body: bodies[row.name](),
					})
				}
			}
			forge(versions[:1])
			forge(versions[1:])
			if done {
				t.Fatal("answers for version subsets, taken together, completed the op")
			}
			if _, _, still := open(); !reflect.DeepEqual(still, missing) {
				t.Fatalf("answers for version subsets were admitted as coverage: missing %v → %v", missing, still)
			}
			forge(versions)
			if !done {
				t.Fatal("answers carrying the group's exact versions did not complete the op")
			}
		})
	}
}

// TestChildPiecesInheritEveryField: a piece derived by a re-split or by a
// replica re-dispatch differs from its parent in rectangle and region
// only (and the hop it then takes) — the originator, attempt and epoch
// are what the next node's skew check, reply and dedup run on.
func TestChildPiecesInheritEveryField(t *testing.T) {
	const epoch = 77
	for _, row := range scatterKinds {
		for _, path := range []string{"re-split", "replica re-dispatch"} {
			t.Run(row.name+"/"+path, func(t *testing.T) {
				_, nodes, taps, sch := tapCluster(t, 8)
				n, tap := nodes[3], taps[3]
				ix, _ := n.getIndex(sch.Tag)
				ix.setTreeEpoch(5, epoch)
				parent := piece{
					kind: row.kind, reqID: 0xabcdef, origin: "elsewhere", index: sch.Tag,
					versions: []uint64{5, 6}, arg: 3, epoch: epoch, hops: 4, attempt: 2,
					rect: schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{9999, 86400, 9999}},
				}
				before := len(tap.pieces)
				if path == "re-split" {
					// The whole space covers several nodes at any member.
					n.handleMessage("n0", row.kind.request(parent))
				} else {
					// This node backs up one owner strictly inside a region
					// it is not part of: that slice is answered from the
					// replicas, the rest re-dispatched.
					parent.region = n.Code().Prefix(1).Sibling()
					ix.noteReplicaOwner(parent.region.Append(0).Append(0))
					if !n.serveFromReplicas(&parent) {
						t.Fatal("replica holder declined the piece")
					}
				}
				// What a receiver could know of the parent: a kind's wire form
				// carries only the fields that kind uses.
				want, _ := pieceOf(row.kind.request(parent))
				children := tap.pieces[before:]
				if len(children) < 2 {
					t.Fatalf("%d child pieces left the node, want several", len(children))
				}
				for _, sp := range children {
					got := sp.p
					if got.region.Equal(parent.region) || reflect.DeepEqual(got.rect, parent.rect) {
						t.Errorf("child kept the parent's region or rect: %+v", got)
					}
					got.rect, got.region = parent.rect, parent.region
					got.hops--
					if !reflect.DeepEqual(got, want) {
						t.Errorf("child lost fields:\n got %+v\nwant %+v", got, want)
					}
				}
			})
		}
	}
}

// TestMalformedPiecesDropped: forwarded pieces are peer-supplied bytes.
// One the decomposition cannot safely index — unknown index, no versions,
// inverted or wrong-dimension rectangle — is a counted drop at whatever
// hop it reaches: no panic, nothing forwarded, nothing answered.
func TestMalformedPiecesDropped(t *testing.T) {
	_, nodes, taps, sch := tapCluster(t, 4)
	n, tap := nodes[2], taps[2]
	good := piece{
		reqID: 7, origin: "n0", index: sch.Tag, versions: []uint64{0},
		rect: schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{9999, 86400, 9999}},
	}
	mutations := map[string]func(p *piece){
		"unknown index": func(p *piece) { p.index = "no-such-index" },
		"no versions":   func(p *piece) { p.versions = nil },
		"inverted rect": func(p *piece) { p.rect = schema.Rect{Lo: []uint64{5, 0, 0}, Hi: []uint64{1, 86400, 9999}} },
		"ragged rect":   func(p *piece) { p.rect = schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{9999, 86400}} },
		"wrong dims":    func(p *piece) { p.rect = schema.Rect{Lo: []uint64{0, 0}, Hi: []uint64{9999, 86400}} },
		"empty rect":    func(p *piece) { p.rect = schema.Rect{} },
	}
	// Each mutation against each way a piece can be handled here: split
	// (the empty region covers every node), answered (this node's own
	// region) and routed (the sibling half of the space).
	regions := []bitstr.Code{bitstr.Empty, n.Code(), n.Code().Prefix(1).Sibling()}
	others := tap.others
	sent, want := 0, uint64(0)
	for name, mutate := range mutations {
		for _, region := range regions {
			for _, row := range scatterKinds {
				for _, whole := range []bool{false, true} {
					p := good
					p.kind, p.region, p.whole = row.kind, region, whole
					mutate(&p)
					n.dispatch("n0", wire.Encode(row.kind.request(p)))
					sent++
					want++
					if got := len(tap.pieces) + len(tap.answers) + tap.others - others; got != 0 {
						t.Fatalf("%s %s piece for region %q produced %d messages", name, row.name, region, got)
					}
				}
			}
		}
	}
	if got := n.Stats().DroppedPieces; got != want {
		t.Errorf("DroppedPieces = %d after %d malformed pieces", got, sent)
	}
	// The same piece well-formed is served.
	for _, row := range scatterKinds {
		p := good
		p.kind, p.region = row.kind, n.Code()
		n.dispatch("n0", wire.Encode(row.kind.request(p)))
	}
	if len(tap.answers) != len(scatterKinds) {
		t.Errorf("%d answers to %d well-formed pieces", len(tap.answers), len(scatterKinds))
	}
}

// TestReissueStaysInRegion: the originator's re-issue of a missing
// region carries the query rectangle clipped to that region's cell, so a
// node that re-splits it fans out inside the region only, and every
// answer covers part of it.
func TestReissueStaysInRegion(t *testing.T) {
	bodies := map[string]func() wire.Message{
		"record":    func() wire.Message { return &wire.QueryResp{} },
		"aggregate": func() wire.Message { return &wire.AggResp{} },
	}
	for _, row := range scatterKinds {
		t.Run(row.name, func(t *testing.T) {
			net, nodes, taps, sch := tapCluster(t, 8)
			n := nodes[0]
			taps[0].drop = func(string, *piece) bool { return true }
			var done bool
			if err := row.start(n, sch.Tag, oneDay, &done); err != nil {
				t.Fatal(err)
			}
			// Re-issue the missing region that most nodes share, after
			// answering every other one.
			var reqID uint64
			var g coverGroup
			var missing []bitstr.Code
			n.mu.Lock()
			for id, op := range n.scatters {
				reqID, g = id, op.groups[0]
				missing = g.cover.MissingRegions(g.tree, op.clamped, g.region, 64)
			}
			n.mu.Unlock()
			under := func(r bitstr.Code) (k int) {
				for _, m := range nodes {
					if r.IsPrefixOf(m.Code()) {
						k++
					}
				}
				return k
			}
			slices.SortStableFunc(missing, func(x, y bitstr.Code) int { return under(y) - under(x) })
			region := missing[0]
			if under(region) < 2 {
				t.Fatalf("missing regions %v: none spans two nodes", missing)
			}
			for _, other := range missing[1:] {
				n.handleAnswer(answer{reqID: reqID, from: wire.NodeInfo{Addr: "x"}, hasCover: true,
					cover: other, versions: g.versions, body: bodies[row.name]()})
			}
			taps[0].drop = nil
			before := make([][2]int, len(taps))
			for i, tap := range taps {
				before[i] = [2]int{len(tap.pieces), len(tap.answers)}
			}
			n.resendScatter(reqID)
			if !net.RunUntil(func() bool { return done }, 1_000_000) {
				t.Fatal("the re-issued region never completed the op")
			}
			cell := g.tree.CodeRect(region)
			for i, tap := range taps {
				for _, sp := range tap.pieces[before[i][0]:] {
					if !region.IsPrefixOf(sp.p.region) || !cell.ContainsRect(sp.p.rect) {
						t.Errorf("n%d sent a piece for %v over %v, outside the re-issued region %v", i, sp.p.region, sp.p.rect, region)
					}
				}
				for _, a := range tap.answers[before[i][1]:] {
					if !region.IsPrefixOf(a.cover) {
						t.Errorf("n%d answered %v, outside the re-issued region %v", i, a.cover, region)
					}
				}
			}
		})
	}
}

// TestResolveClipsToCell: a node's store may hold records of other
// regions — a re-homing repair keeps its local copies — and an answer
// for its region holds the records of the region's cell alone, for both
// kinds, however wide the piece's rectangle.
func TestResolveClipsToCell(t *testing.T) {
	_, a, _, _, _, sch := tapPair(t)
	ix, _ := a.getIndex(sch.Tag)
	own := ownedRecs(t, a, sch.Tag, 84, true, 3)
	foreign := ownedRecs(t, a, sch.Tag, 85, false, 4)
	for _, rec := range append(append([]schema.Record{}, own...), foreign...) {
		ix.primary.Insert(0, rec)
	}
	p := piece{index: sch.Tag, versions: []uint64{0}, rect: oneDay, region: a.Code()}
	m := recordKind{}.resolve(a, ix, p, answer{}, false).(*wire.QueryResp)
	if got := m.Recs.Records(); !reflect.DeepEqual(got, own) {
		t.Errorf("record answer carries %v, want the region's %v", got, own)
	}
	agg := aggKind{}.resolve(a, ix, p, answer{}, false).(*wire.AggResp)
	if agg.Count != uint64(len(own)) {
		t.Errorf("aggregate answer counts %d, want the region's %d", agg.Count, len(own))
	}
}
