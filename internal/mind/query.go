package mind

import (
	"mind/internal/bitstr"
	"mind/internal/schema"
	"mind/internal/wire"
)

// QueryResult is delivered to the query callback.
type QueryResult struct {
	// Records are the deduplicated matching records.
	Records []schema.Record
	// Complete is true when every region of the query space was covered
	// by a response (§3.6: negative responses count, so completeness is
	// detectable); false means the timeout elapsed first.
	Complete bool
	// Responders is the number of distinct nodes that answered — the
	// query-cost metric of Figs 9 and 15.
	Responders int
	// MaxHops is the largest overlay hop count any sub-query travelled.
	MaxHops int
	// Err is non-nil for failures other than incompleteness.
	Err error
	// Uncovered lists sample "version:regionCode" pairs that never
	// received a covering response; populated only on incomplete
	// results, for diagnostics.
	Uncovered []string
}

// Query resolves a multi-dimensional range query against an index
// (§3.6): the query is greedy-routed to the first node whose region
// abuts it, split there into per-region sub-queries, and all results
// return directly to this node. The callback fires once, with complete
// results or with whatever arrived by the timeout.
func (n *Node) Query(tag string, rect schema.Rect, cb func(QueryResult)) error {
	return n.scatter(tag, rect, recordKind{}, 0, func(*index) accumulator {
		return &recordAcc{cb: cb, ids: make(map[uint64]bool)}
	})
}

// recordKind is the record-query resolver: pieces travel as wire.Query
// while undecomposed and as wire.SubQuery afterwards, and answers carry
// the matching records with content-hash ids.
type recordKind struct{}

func (recordKind) request(p piece) wire.Message {
	if p.whole {
		return &wire.Query{
			ReqID: p.reqID, OriginAddr: p.origin, Index: p.index, Versions: p.versions,
			Rect: p.rect, Target: p.region, Hops: p.hops, TreeEpoch: p.epoch,
		}
	}
	return &wire.SubQuery{
		ReqID: p.reqID, OriginAddr: p.origin, Index: p.index, Versions: p.versions,
		Rect: p.rect, RegionCode: p.region, Hops: p.hops, Historic: p.historic,
		Attempt: p.attempt, TreeEpoch: p.epoch,
	}
}

func pieceFromQuery(m *wire.Query) piece {
	return piece{
		kind: recordKind{}, reqID: m.ReqID, origin: m.OriginAddr, index: m.Index,
		versions: m.Versions, rect: m.Rect, region: m.Target, hops: m.Hops,
		epoch: m.TreeEpoch, whole: true,
	}
}

func pieceFromSubQuery(m *wire.SubQuery) piece {
	return piece{
		kind: recordKind{}, reqID: m.ReqID, origin: m.OriginAddr, index: m.Index,
		versions: m.Versions, rect: m.Rect, region: m.RegionCode, hops: m.Hops,
		historic: m.Historic, attempt: m.Attempt, epoch: m.TreeEpoch,
	}
}

func answerFromQueryResp(m *wire.QueryResp) answer {
	return answer{
		reqID: m.ReqID, from: m.From, hasCover: m.HasCover, cover: m.Cover,
		versions: m.Versions, hops: m.Hops, body: m,
	}
}

// epochOnAnswer: record answers are rect-based — a record is a record
// wherever it is found, and a node always answers honestly from what it
// stores — so decomposed pieces never re-check the tree. The undecomposed
// query does: its receiver is the first node to compare trees with the
// originator, and dropping a stale one there (with the repair that
// follows) keeps a lagging node from claiming the whole query region.
func (recordKind) epochOnAnswer(p piece) bool { return p.whole }

func (recordKind) resolve(n *Node, ix *index, p piece, a answer, replica bool) wire.Message {
	var recs []schema.Record
	if replica {
		recs = filterToRegion(ix, p.versions32(), p.rect, p.region)
	} else {
		recs = n.resolveLocal(ix.primary, p.versions32(), p.rect)
	}
	resp := &wire.QueryResp{
		ReqID: a.reqID, From: a.from, HasCover: a.hasCover, Cover: a.cover,
		Versions: a.versions, Hops: a.hops,
	}
	if len(recs) > 0 {
		resp.RecID = make([]uint64, 0, len(recs))
		resp.Recs = make([][]uint64, 0, len(recs))
		for _, r := range recs {
			resp.RecID = append(resp.RecID, recHash(r))
			resp.Recs = append(resp.Recs, r)
		}
	}
	return resp
}

// recordAcc gathers a record query's answers. Overlapping answers
// (replica fail-over, ring double-delivery, retransmission races) are
// harmless: records dedup by content id, so every response is admitted.
type recordAcc struct {
	cb      func(QueryResult)
	ids     map[uint64]bool
	records []schema.Record
}

func (r *recordAcc) admit(a answer, _ *coverSet) bool {
	m, ok := a.body.(*wire.QueryResp)
	if !ok {
		return false
	}
	for i, id := range m.RecID {
		if !r.ids[id] {
			r.ids[id] = true
			r.records = append(r.records, schema.Record(m.Recs[i]))
		}
	}
	return true
}

func (r *recordAcc) deliver(o outcome) {
	if r.cb != nil {
		r.cb(QueryResult{
			Records: r.records, Complete: o.complete, Responders: o.responders,
			MaxHops: o.maxHops, Uncovered: o.uncovered,
		})
	}
}

func (r *recordAcc) tally(s *Stats) { s.PendingQueries++ }

// filterToRegion visits the replica store and keeps the records inside
// the region. The replica store reads are snapshot-consistent; no lock
// is required.
func filterToRegion(ix *index, versions []uint32, rect schema.Rect, region bitstr.Code) []schema.Record {
	var out []schema.Record
	var scratch []uint64
	for _, v := range versions {
		eng := ix.replicas.Get(v)
		if eng == nil {
			continue
		}
		tree := ix.tree(v)
		eng.Visit(rect, func(r schema.Record) {
			scratch = r.PointInto(ix.sch, scratch)
			if region.IsPrefixOf(tree.PointCode(scratch, region.Len())) {
				out = append(out, r)
			}
		})
	}
	return out
}

// recHash derives a content id for record-level dedup across duplicate
// responses (replica fail-over, ring double-delivery).
func recHash(r []uint64) uint64 {
	var h uint64 = 14695981039346656037
	for _, v := range r {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * uint(i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}
