package mind

import (
	"mind/internal/bitstr"
	"mind/internal/embed"
	"mind/internal/schema"
	"mind/internal/store"
	"mind/internal/summary"
	"mind/internal/wire"
)

// Aggregate query path (DESIGN.md §4i): COUNT/SUM/top-k over a rectangle
// answered from the per-node summary layer instead of materializing
// records. It is the scatter-gather engine's (scatter.go) second
// resolver: the payloads are O(K) aggregates, so the originator merges
// counters and sketches where the record resolver splices records. Two
// consequences shape everything below:
//
//   - Answers are geometry-dependent. Both resolvers restrict an answer
//     to rect ∩ the answered region's cell, but counters merge blind, so
//     the answering side must agree with the originator's cut tree
//     (epochOnAnswer is unconditional here).
//
//   - There is no per-record identity to dedup by. Covering answers are
//     admitted by the engine's one rule (scatter.go handleAnswer: only
//     while they keep their group's cover trie prefix-free), as record
//     answers are; where the record resolver falls back to content ids
//     for answers that claim no coverage, non-covering partials are
//     admitted here once per (responder, group, region).

// AggResult is delivered to the aggregate query callback.
type AggResult struct {
	// Count and Sums are the exact record count and per-attribute sums
	// (wrapping mod 2^64) over the query rectangle, at quiescence.
	Count uint64
	Sums  []uint64
	// TopK is the merged heavy-hitter sketch in canonical order. Every
	// entry's true count lies in [Count-Err, Count]; any absent key's
	// count is at most Floor.
	TopK    []summary.Entry
	SketchN uint64
	Floor   uint64
	// Exact reports that TopK entries are exact counts (no sketch
	// anywhere evicted or truncated; Floor == 0).
	Exact bool
	// Complete is true when every region of the query space was covered
	// by a response; false means the timeout elapsed first.
	Complete bool
	// Responders is the number of distinct nodes that answered.
	Responders int
	// MaxHops is the largest overlay hop count any piece travelled.
	MaxHops int
	// Retried reports that the originator retransmitted at least once —
	// the only runs in which an overlapping-answer race can perturb the
	// counters (see the package comment above); callers wanting strict
	// exactness re-issue on a quiet system.
	Retried bool
	// Err is non-nil for failures other than incompleteness.
	Err error
	// Uncovered lists sample "version:regionCode" pairs that never
	// received a covering response (incomplete results only).
	Uncovered []string
}

// Agg resolves COUNT/SUM/top-k over a rectangle against an index from
// the distributed summary layer: the query greedy-routes to the first
// abutting node, splits into per-region pieces, and each region answers
// its partial aggregate in O(cover + boundary) from its rollup. topK
// caps the heavy-hitter entries (0: the summary layer's sketch capacity).
// The callback fires once, with complete merged results or with
// whatever arrived by the timeout.
func (n *Node) Agg(tag string, rect schema.Rect, topK int, cb func(AggResult)) error {
	topK = summaryK(topK)
	return n.scatter(tag, rect, aggKind{}, uint32(topK), func(ix *index) accumulator {
		return &aggAcc{
			cb: cb, topK: topK, agg: summary.NewAgg(ix.sch.Arity(), topK),
			contrib: make(map[aggContrib]bool),
		}
	})
}

// aggKind is the aggregate resolver. One message, wire.AggQuery, carries
// a piece whether or not it has been decomposed — an aggregate answer
// has no record payload, so a separate whole-query envelope would buy
// nothing — and the piece's arg is the requested top-k.
type aggKind struct{}

func (aggKind) request(p piece) wire.Message {
	return &wire.AggQuery{
		ReqID: p.reqID, OriginAddr: p.origin, Index: p.index, Versions: p.versions,
		Rect: p.rect, RegionCode: p.region, TopK: p.arg, Hops: p.hops,
		Historic: p.historic, Attempt: p.attempt, TreeEpoch: p.epoch,
	}
}

func pieceFromAggQuery(m *wire.AggQuery, from string) piece {
	return piece{
		kind: aggKind{}, reqID: m.ReqID, origin: m.OriginAddr, index: m.Index,
		versions: m.Versions, rect: m.Rect, region: m.RegionCode, arg: m.TopK,
		hops: m.Hops, from: from, historic: m.Historic, attempt: m.Attempt, epoch: m.TreeEpoch,
	}
}

func answerFromAggResp(m *wire.AggResp) answer {
	return answer{
		reqID: m.ReqID, from: m.From, hasCover: m.HasCover, cover: m.Cover,
		versions: m.Versions, hops: m.Hops, body: m,
	}
}

// epochOnAnswer: the restriction in resolve uses this node's tree to
// reconstruct the region's cell, so the answering side must agree on the
// tree epoch before its numbers can be merged blind.
func (aggKind) epochOnAnswer(piece) bool { return true }

// resolve computes the aggregate over rect ∩ the region's cell, as the
// record resolver visits it: local storage may hold records
// geometrically outside the answered region (reshuffle and step-down
// keep local copies). The primary side answers from the summary rollup
// with boundary cells folded in place; the replica store has no rollup,
// so the replica side folds the whole rectangle the same way — a
// fail-over answer carries the same exact-count brackets as a primary
// one.
func (aggKind) resolve(n *Node, ix *index, p piece, a answer, replica bool) wire.Message {
	versions := p.versions32()
	out := summary.NewAgg(ix.sch.Arity(), summaryK(int(p.arg)))
	var buf embed.Scratch
	if aggRect, ok := cellClip(&buf, ix.tree(versions[0]), p.rect, p.region); ok {
		vs := ix.primary
		if replica {
			vs = ix.replicas
		}
		resolveLocalAgg(vs, versions, aggRect, &out)
	}
	if !replica {
		n.aggAnswered.Add(1)
	}
	resp := &wire.AggResp{
		ReqID: a.reqID, From: a.from, HasCover: a.hasCover, Cover: a.cover,
		Versions: a.versions, Hops: a.hops, Count: out.Count, Sums: out.Sums,
	}
	flattenSketch(resp, out.Sketch)
	return resp
}

// aggAcc merges an aggregate query's answers. Counters are admitted
// exactly once per (responder, version group, region) — the group must
// be part of the key because after a reversion the same responder
// answers once per cut tree for the same region code, and those are
// disjoint record sets, not duplicates; covering answers are
// additionally admitted only while they keep the cover trie
// prefix-free — a cover nested inside accepted coverage duplicates
// counters already merged, and a cover strictly containing accepted
// covers would double-count its interior, so both are dropped and the
// retransmission layer re-asks the genuinely missing remainder regions.
type aggAcc struct {
	cb      func(AggResult)
	topK    int
	agg     summary.Agg         // accumulated counters; its sketch merges at delivery
	parts   []*summary.Sketch   // admitted answers' sketches, merged once by deliver
	contrib map[aggContrib]bool // contributions already counted
}

// aggContrib names one contribution: (responder, version group, region).
type aggContrib struct {
	addr  string
	group uint64
	cover bitstr.Code
}

func (g *aggAcc) admit(a answer, trie *coverSet) bool {
	m, ok := a.body.(*wire.AggResp)
	if !ok {
		return false
	}
	if a.hasCover && trie == nil {
		return false
	}
	group := uint64(0)
	if len(a.versions) > 0 {
		group = a.versions[0]
	}
	key := aggContrib{a.from.Addr, group, a.cover}
	if !g.contrib[key] {
		g.contrib[key] = true
		g.agg.Merge(m.Count, m.Sums, nil)
		g.parts = append(g.parts, sketchFromResp(m, g.topK))
	}
	return true
}

func (g *aggAcc) deliver(o outcome) {
	if g.cb == nil {
		return
	}
	sk := g.agg.Sketch
	sk.MergeMany(g.parts)
	g.cb(AggResult{
		Count: g.agg.Count, Sums: g.agg.Sums,
		TopK: sk.Top(), SketchN: sk.N(), Floor: sk.Floor(), Exact: sk.Exact(),
		Complete: o.complete, Responders: o.responders, MaxHops: o.maxHops,
		Retried: o.retried, Uncovered: o.uncovered,
	})
}

func (g *aggAcc) tally(s *Stats) { s.PendingAggs++ }

// summaryK resolves a requested heavy-hitter count: non-positive asks
// for the summary layer's sketch capacity.
func summaryK(requested int) int {
	if requested > 0 {
		return requested
	}
	return summary.DefaultK
}

// resolveLocalAgg assembles one node's aggregate over rect for the
// given versions of vs: per version, the ladder's own rollup answers the
// covered cells in O(cover) and the boundary cells are folded in place
// from the ladder's records — summary.ResolveShard, one store visit per
// cell handing over a batch per leaf, no record slice. A ladder without
// a rollup (the replica store) folds the rectangle whole and has no
// cover parts. Every version folds into the one pooled fold, and every
// version's covered-cell sketches and the fold's key part combine in one
// MergeMany batch. rect does not escape: it may be a cursor's scratch.
func resolveLocalAgg(vs *store.Versioned, versions []uint32, rect schema.Rect, out *summary.Agg) {
	var parts []*summary.Sketch
	fold := summary.GetFold(len(out.Sums))
	for _, v := range versions {
		eng := vs.Get(v)
		switch {
		case eng == nil:
		case eng.Rollup() == nil:
			eng.VisitBatches(rect, fold.AddBatch)
		default:
			parts = summary.ResolveShard(eng.Rollup(), rect, eng.VisitBatches, fold, parts)
		}
	}
	out.MergeShards(parts, fold)
	summary.PutFold(fold)
}

// flattenSketch encodes a sketch into a response's parallel slices.
func flattenSketch(resp *wire.AggResp, sk *summary.Sketch) {
	resp.SketchK = uint32(sk.K())
	resp.SketchN = sk.N()
	resp.Floor = sk.Floor()
	top := sk.Top()
	if len(top) == 0 {
		return
	}
	resp.Keys = make([]uint64, len(top))
	resp.Counts = make([]uint64, len(top))
	resp.Errs = make([]uint64, len(top))
	for i, e := range top {
		resp.Keys[i] = e.Key
		resp.Counts[i] = e.Count
		resp.Errs[i] = e.Err
	}
}

// sketchFromResp reconstructs a response's sketch partial.
func sketchFromResp(m *wire.AggResp, fallbackK int) *summary.Sketch {
	k := int(m.SketchK)
	if k <= 0 {
		k = fallbackK
	}
	entries := make([]summary.Entry, len(m.Keys))
	for i := range m.Keys {
		entries[i] = summary.Entry{Key: m.Keys[i], Count: m.Counts[i], Err: m.Errs[i]}
	}
	return summary.FromParts(k, m.SketchN, m.Floor, entries)
}
