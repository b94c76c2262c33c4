package mind

import (
	"math/bits"
	"slices"

	"mind/internal/bitstr"
	"mind/internal/schema"
	"mind/internal/wire"
)

// QueryResult is delivered to the query callback.
type QueryResult struct {
	// Records are the deduplicated matching records, in arrival order.
	// Each is a read-only capped view into the arena its answer was
	// decoded into (or, for this node's own share, into the store): it
	// may be retained, and a retained record pins that whole arena;
	// Clone what must outlive the rest.
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
		return &recordAcc{cb: cb}
	})
}

// recordKind is the record-query resolver: pieces travel as wire.Query
// while undecomposed and as wire.SubQuery afterwards, and answers carry
// the matching records alone — the originator derives their ids.
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
		recs = ix.primary.Query(p.versions32(), p.rect)
	}
	return &wire.QueryResp{
		ReqID: a.reqID, From: a.from, HasCover: a.hasCover, Cover: a.cover,
		Versions: a.versions, Recs: recs, Hops: a.hops,
	}
}

// recordAcc gathers a record query's answers. Overlapping answers
// (replica fail-over, ring double-delivery, retransmission races) are
// harmless: records dedup by content id (recHash, computed here as each
// answer is admitted), so every response is admitted.
// An answer's record list is kept where it was decoded, with the records
// already seen squeezed out in place; deliver concatenates the lists
// once, at their exact total, and an operation one answer resolved hands
// that answer's list on as it stands.
type recordAcc struct {
	cb    func(QueryResult)
	ids   idSet
	parts [][]schema.Record
}

func (r *recordAcc) admit(a answer, _ *coverSet) bool {
	m, ok := a.body.(*wire.QueryResp)
	if !ok {
		return false
	}
	r.ids.reserve(len(m.Recs))
	fresh := m.Recs[:0]
	for _, rec := range m.Recs {
		if r.ids.add(recHash(rec)) {
			fresh = append(fresh, rec)
		}
	}
	if len(fresh) > 0 {
		r.parts = append(r.parts, fresh)
	}
	return true
}

func (r *recordAcc) deliver(o outcome) {
	if r.cb == nil {
		return
	}
	var records []schema.Record
	if len(r.parts) == 1 {
		records = r.parts[0]
	} else {
		records = slices.Concat(r.parts...)
	}
	r.cb(QueryResult{
		Records: records, Complete: o.complete, Responders: o.responders,
		MaxHops: o.maxHops, Uncovered: o.uncovered,
	})
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

// recHash derives a record's content id, the key duplicate answers
// (replica fail-over, ring double-delivery) dedup by — a collision would
// silently drop a record, so every attribute is folded in by a bijective
// xorshift-multiply round and one more round closes the chain: each
// attribute passes through at least the two rounds of a full-avalanche
// 64-bit finaliser before the id leaves, and two records of one arity
// that differ in a single attribute cannot collide at all. The arity
// seeds the chain, so a trailing zero attribute changes the id. Ids are
// computed only at the originator, from the records it decoded, and never
// cross the wire, so no two builds ever have to agree on them.
func recHash(r []uint64) uint64 {
	const m = 0xd6e8feb86659fd93
	h := uint64(len(r)+1) * 0x9e3779b97f4a7c15
	for _, v := range r {
		h ^= v
		h ^= h >> 32
		h *= m
		h ^= h >> 32
	}
	h *= m
	return h ^ h>>32
}

// idSet is the set of record ids an operation has admitted: flat,
// open-addressed, linear probing on a multiply-shift hash, in the style
// of summary.Tally. 0 marks an empty slot, so id 0 has a flag of its own.
// The zero idSet is empty; reserve sizes it.
type idSet struct {
	slots []uint64 // len is a power of two
	used  int
	shift uint // 64 - log2(len(slots))
	zero  bool // id 0 is in the set
}

const idSetMinSlots = 64

// reserve makes room for n more ids at a load of at most 1/2, so an
// answer rehashes the set at most once, to a size set by the ids that
// have arrived.
func (s *idSet) reserve(n int) {
	need := 2 * (s.used + n)
	if need <= len(s.slots) {
		return
	}
	old := s.slots
	size := max(1<<bits.Len(uint(need-1)), idSetMinSlots)
	s.slots = make([]uint64, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	s.used = 0
	for _, id := range old {
		if id != 0 {
			s.add(id)
		}
	}
}

// add puts id in the set and reports whether it was new. The caller has
// reserved room for it.
func (s *idSet) add(id uint64) bool {
	if id == 0 {
		was := s.zero
		s.zero = true
		return !was
	}
	mask := uint64(len(s.slots) - 1)
	for i := id * 0x9e3779b97f4a7c15 >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = id
			s.used++
			return true
		case id:
			return false
		}
	}
}
