package mind

import (
	"mind/internal/embed"
	"mind/internal/schema"
	"mind/internal/store"
	"mind/internal/wire"
)

// QueryResult is delivered to the query callback.
type QueryResult struct {
	// Records are the matching records, each stored record once (two
	// identical records inserted separately are both returned, as an
	// aggregate counts both), in arrival order, decoded once, at
	// delivery, from the answers' wire form: each is a
	// read-only capped view into one arena. It may be retained, and a
	// retained record pins that arena; Clone what must outlive the rest.
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
	return n.query(tag, rect, func(recs wire.Groups, res QueryResult) {
		if cb != nil {
			res.Records = recs.Records()
			cb(res)
		}
	})
}

// query is Query with the records left in their wire form: cb gets the
// groups the originator spliced from its answers (the client RPC hands
// them to its response as they stand) and a result without Records.
func (n *Node) query(tag string, rect schema.Rect, cb func(wire.Groups, QueryResult)) error {
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

func pieceFromQuery(m *wire.Query, from string) piece {
	return piece{
		kind: recordKind{}, reqID: m.ReqID, origin: m.OriginAddr, index: m.Index,
		versions: m.Versions, rect: m.Rect, region: m.Target, hops: m.Hops, from: from,
		epoch: m.TreeEpoch, whole: true,
	}
}

func pieceFromSubQuery(m *wire.SubQuery, from string) piece {
	return piece{
		kind: recordKind{}, reqID: m.ReqID, origin: m.OriginAddr, index: m.Index,
		versions: m.Versions, rect: m.Rect, region: m.RegionCode, hops: m.Hops, from: from,
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

// resolve packs the matching records straight from the store's batches
// into the answer's groups, the one encoding they get on their way to
// the client: each batch at the frames of the leaf or block it rests in,
// with nothing decoded but the columns the read tested
// (wire.Groups.AppendBatch). Every version's store is visited over the
// piece's rectangle clipped to the region's cell, as the aggregate
// resolver does: local storage may hold records of other regions (the
// copies a re-homing repair keeps, a split sibling's leftovers), and a
// covering answer must hold its cover's records alone for the
// originator to admit it by cover.
func (recordKind) resolve(n *Node, ix *index, p piece, a answer, replica bool) wire.Message {
	m := &wire.QueryResp{
		ReqID: a.reqID, From: a.from, HasCover: a.hasCover, Cover: a.cover,
		Versions: a.versions, Hops: a.hops,
	}
	if replica {
		m.Recs = filterToRegion(ix, p)
	} else {
		visitCell(ix, ix.primary, p, m.Recs.AppendBatch)
		m.Recs.Close()
	}
	return m
}

// visitCell hands fn every batch of vs, in p's versions, inside p.rect ∩
// the cell of p.region under the version's tree.
func visitCell(ix *index, vs *store.Versioned, p piece, fn func(*schema.Batch)) {
	var buf embed.Scratch
	for _, v := range p.versions {
		s := vs.Get(uint32(v))
		if s == nil {
			continue
		}
		if rect, ok := cellClip(&buf, ix.tree(uint32(v)), p.rect, p.region); ok {
			s.VisitBatches(rect, fn)
		}
	}
}

// recordAcc gathers a record query's answers; deliver hands on one list
// spliced from the groups they arrived in, with no record decoded. The
// engine has already dropped a covering answer that overlaps its group's
// accepted coverage (handleAnswer), and every responder clips its answer
// to its cover's cell, so covering answers are disjoint: each is spliced
// whole, run by run, and every stored record is returned once — a
// multiset, as aggregates count. Two kinds of answer may still repeat
// records another answer holds: a history-delegating answer (no cover:
// its split sibling answers the region too) and a version-subset answer
// (no group to claim coverage in). The first of those switches the op to
// content ids: the records spliced so far are decoded a group at a time
// and hashed (recID), and from then on every record is admitted only if
// its id is new.
type recordAcc struct {
	cb        func(wire.Groups, QueryResult)
	list      wire.Groups
	byContent bool // an answer that may overlap arrived: dedup by content id
	ids       genTable[struct{}]
}

// groupBuf is the stack buffer a group is decoded into on the content-id
// path: a full group of arity 8; a wider one allocates.
type groupBuf = [wire.MaxGroupRows * 8]uint64

func (r *recordAcc) admit(a answer, trie *coverSet) bool {
	m, ok := a.body.(*wire.QueryResp)
	if !ok {
		return false
	}
	if !r.byContent {
		if a.hasCover && trie != nil {
			r.list.SpliceList(m.Recs)
			return true
		}
		r.byContent = true
		r.ids.reserve(r.list.Len())
		var buf groupBuf
		for _, run := range r.list.Runs() {
			for off := 0; off < len(run); {
				rows, n, size := wire.DecodeGroup(run[off:], buf[:0])
				for i, k := 0, len(rows)/n; i < n; i++ {
					r.ids.add(recID(rows[i*k : (i+1)*k]))
				}
				off += size
			}
		}
	}
	r.spliceFresh(m.Recs)
	return true
}

// spliceFresh splices onto the list the records of src whose content ids
// are new, adding them. Each group is decoded once: one whose rows are
// all fresh goes on as the bytes it arrived in, a stretch of them as one
// run, and the fresh rows of any other are re-packed into a group of
// their own.
func (r *recordAcc) spliceFresh(src wire.Groups) {
	r.ids.reserve(src.Len())
	var buf groupBuf
	var sel [wire.MaxGroupRows]int32 // the word offsets of a group's fresh rows
	for _, run := range src.Runs() {
		start, fresh := 0, 0 // run[start:off] holds groups of fresh records
		for off := 0; off < len(run); {
			rows, n, size := wire.DecodeGroup(run[off:], buf[:0])
			k, kept := len(rows)/n, sel[:0]
			for i := 0; i < n; i++ {
				if r.ids.add(recID(rows[i*k : (i+1)*k])) {
					kept = append(kept, int32(i*k))
				}
			}
			if len(kept) == n {
				fresh += n
			} else {
				r.list.Splice(run[start:off], fresh)
				r.list.AppendRows(rows, kept, k)
				start, fresh = off+size, 0
			}
			off += size
		}
		r.list.Splice(run[start:], fresh)
	}
}

func (r *recordAcc) deliver(o outcome) {
	r.list.Close()
	r.cb(r.list, QueryResult{
		Complete: o.complete, Responders: o.responders,
		MaxHops: o.maxHops, Uncovered: o.uncovered,
	})
}

func (r *recordAcc) tally(s *Stats) { s.PendingQueries++ }

// filterToRegion is a fail-over answer: the replica store's records in
// p.rect ∩ the cell of p.region, each once. A replica store keeps what
// every owner it backs up sent it, so it can hold one record twice — the
// old owner's copy and the new owner's after a repair moved it — and the
// copies collapse here by content id, hashed straight from the store's
// batches (decoded, Batch.Rows): each batch's fresh rows are packed into
// a group. The replica store reads are snapshot-consistent; no lock is
// required.
func filterToRegion(ix *index, p piece) wire.Groups {
	var out wire.Groups
	var ids genTable[struct{}]
	var fresh []int32
	arity := ix.sch.Arity()
	visitCell(ix, ix.replicas, p, func(b *schema.Batch) {
		rows, sel := b.Rows()
		ids.reserve(len(sel))
		fresh = fresh[:0]
		for _, o := range sel {
			if ids.add(recID(rows[o : int(o)+arity])) {
				fresh = append(fresh, o)
			}
		}
		out.AppendRows(rows, fresh, arity)
	})
	out.Close()
	return out
}

// recID derives a record's content id from its values, the key answers
// that can overlap (history delegation, version subsets, a replica
// store's two copies) dedup by — a collision would silently drop a
// record, so every value is folded in by a bijective xorshift-multiply
// round and one more round closes the chain: each bit passes through at
// least the two rounds of a full-avalanche 64-bit finaliser before the
// id leaves, and two records of one arity that differ in a single value
// cannot collide at all. The arity seeds the chain. Equal ids of unequal
// records are collisions; how a record was packed on the wire never
// enters. Ids never cross the wire, so no two builds ever have to agree
// on them.
func recID(rec []uint64) uint64 {
	const m = 0xd6e8feb86659fd93
	h := uint64(len(rec)+1) * 0x9e3779b97f4a7c15
	for _, w := range rec {
		h ^= w
		h ^= h >> 32
		h *= m
		h ^= h >> 32
	}
	h *= m
	return h ^ h>>32
}
