package mind

import (
	"fmt"
	"slices"

	"mind/internal/bitstr"
	"mind/internal/embed"
	"mind/internal/schema"
	"mind/internal/transport"
	"mind/internal/wire"
)

// Scatter-gather engine (§3.6, DESIGN.md §4c): a rectangle is
// greedy-routed to the first node whose region abuts it, decomposed
// there against the cut tree, and every region answers straight back to
// the originator, which detects completion from covering (including
// negative) responses and re-asks the regions still missing on the
// reliable layer's backoff schedule. Record queries (query.go) and
// aggregate queries (aggquery.go) are two resolvers over this one
// machine; whatever differs between them sits behind the resolver and
// accumulator interfaces below, and nothing in this file knows which of
// the two it is serving.

// piece is one rectangle of an operation travelling toward the region
// that answers it: the undecomposed dispatch, a decomposed sub-rectangle,
// a history-pointer forward or a retransmission.
type piece struct {
	kind     resolver
	reqID    uint64
	origin   string
	from     string // the contact the piece arrived from ("" at its originator)
	index    string
	versions []uint64 // one tree group; versions[0] names the group
	rect     schema.Rect
	region   bitstr.Code // the coverage unit the answer will claim
	arg      uint32      // kind-specific request parameter, carried verbatim
	epoch    uint64      // cut tree the originator decomposed with
	hops     uint8
	attempt  uint8 // 0 on first dispatch, counts originator re-issues
	historic bool  // forwarded along a §3.4 history pointer: answer, skip ownership
	whole    bool  // the originator's dispatch, before any node decomposed it
}

// child derives the piece for one sub-rectangle of p. Everything but the
// rectangle and the region it is answerable for is inherited — the
// originator's address, epoch and attempt are what the receiving side's
// skew check, reply and dedup depend on.
func (p *piece) child(rect schema.Rect, region bitstr.Code) piece {
	c := *p
	c.rect, c.region, c.whole = rect, region, false
	return c
}

func (p *piece) versions32() []uint32 {
	out := make([]uint32, len(p.versions))
	for i, v := range p.versions {
		out[i] = uint32(v)
	}
	return out
}

// answer is one region's response on its way back to the originator: the
// coverage claim the engine tracks, plus the kind's wire response, whose
// payload only that kind's accumulator reads.
type answer struct {
	reqID    uint64
	from     wire.NodeInfo
	hasCover bool // false: a history-delegating node contributes without claiming its region
	cover    bitstr.Code
	versions []uint64
	hops     uint8
	body     wire.Message
}

// resolver is what one kind of scatter-gather operation supplies on the
// routing and answering side. Pieces and answers pass by value so the
// dynamic calls do not force them onto the heap.
type resolver interface {
	// request builds the wire message that carries p to another node.
	request(p piece) wire.Message
	// resolve evaluates p against the primary stores, or the replica
	// store restricted to p.region, and returns the wire response
	// stamped with a's header.
	resolve(n *Node, ix *index, p piece, a answer, replica bool) wire.Message
	// epochOnAnswer reports whether answering p, not just decomposing
	// it, requires agreeing with the originator's cut tree.
	epochOnAnswer(p piece) bool
}

// accumulator is the originator-side half of a kind: it merges admitted
// answers and builds the result. Methods run under n.mu, except deliver.
type accumulator interface {
	// admit merges a's payload and reports whether a's coverage claim
	// may enter the cover trie. trie is the cover set of a's version
	// group (nil when the op has none); a covering answer of a group
	// reaches admit only if its cover overlaps none the trie holds.
	admit(a answer, trie *coverSet) bool
	// deliver fires the operation's callback.
	deliver(o outcome)
	// tally counts the op into the kind's pending gauge.
	tally(s *Stats)
}

// outcome is the kind-independent part of a finished operation.
type outcome struct {
	complete   bool
	responders int
	maxHops    int
	retried    bool
	uncovered  []string // sample "v<version>:<region>" pairs never covered (incomplete only)
}

// coverGroup is what an operation tracks per cut tree: the versions that
// embed with one tree travel in the same pieces, so one trie answers for
// all of them.
type coverGroup struct {
	versions []uint64 // as every piece and answer of the group carries them
	tree     *embed.Tree
	region   bitstr.Code // region the trie must cover
	epoch    uint64      // tree epoch stamped on the group's pieces
	cover    *coverSet
}

type scatterOp struct {
	kind       resolver
	acc        accumulator
	index      string
	rect       schema.Rect // as asked; every piece carries it
	clamped    schema.Rect // rect pulled inside the schema bounds, once, for the coverage walks
	arg        uint32
	groups     []coverGroup // ascending first-version order
	responders map[string]bool
	maxHops    int
	timer      transport.Timer // overall QueryTimeout bound

	// Reliable-request state (reliable.go): uncovered regions are re-asked
	// on the backoff schedule, excluding the first hop their last attempt
	// used.
	retry     retrySchedule
	retryHops map[bitstr.Code]string // region → first hop of its last attempt
	wholeHop  string                 // first hop of the whole dispatch
}

// scatter starts one operation: one whole piece per cut tree the
// rectangle's versions embed with, all tracked by a single op. The
// accumulator's callback fires once, with complete results or with
// whatever arrived by QueryTimeout.
func (n *Node) scatter(tag string, rect schema.Rect, kind resolver, arg uint32, newAcc func(*index) accumulator) error {
	if !rect.Valid() {
		return fmt.Errorf("mind: invalid query rect")
	}
	ix, ok := n.getIndex(tag)
	if !ok {
		return fmt.Errorf("mind: unknown index %q", tag)
	}
	if rect.Dims() != ix.sch.IndexDims {
		return fmt.Errorf("mind: query dims %d != index dims %d", rect.Dims(), ix.sch.IndexDims)
	}
	versions := ix.queryVersions(rect, n.cfg.VersionSeconds)
	groups := ix.groupVersionsByTree(versions)
	reqID := n.nextReq()
	op := &scatterOp{
		kind:       kind,
		acc:        newAcc(ix),
		index:      tag,
		rect:       rect.Clone(),
		clamped:    embed.Clamp(rect, ix.sch.Bounds()),
		arg:        arg,
		responders: make(map[string]bool),
		retryHops:  make(map[bitstr.Code]string),
	}
	maxDepth := clampDepth(n.ov.Code().Len() + n.cfg.InsertDepthSlack)
	// Dispatch groups in ascending first-version order: the grouping map
	// is keyed by tree pointer, and send order must not depend on map
	// iteration for same-seed simnet runs to reproduce exactly.
	var pieces []piece
	dispatched := make(map[*embed.Tree]bool)
	for _, v := range versions {
		tree := ix.tree(v)
		if dispatched[tree] {
			continue
		}
		dispatched[tree] = true
		vs := groups[tree]
		qcode := tree.QueryCode(rect, maxDepth)
		// One epoch per tree group: versions sharing a tree share its
		// install state, so the first version's epoch represents the
		// group (base-tree groups are all epoch 0 by construction).
		epoch := ix.epochOf(vs[0])
		vlist := make([]uint64, len(vs))
		for i, v := range vs {
			vlist[i] = uint64(v)
		}
		op.groups = append(op.groups, coverGroup{versions: vlist, tree: tree, region: qcode, epoch: epoch, cover: newCoverSet()})
		pieces = append(pieces, piece{
			kind: kind, reqID: reqID, origin: n.ep.Addr(), index: tag, versions: vlist,
			rect: op.rect, region: qcode, arg: arg, epoch: epoch, whole: true,
		})
	}
	n.reqTracked.Add(1)
	n.mu.Lock()
	n.scatters[reqID] = op
	op.timer = n.clock.AfterFunc(n.cfg.QueryTimeout, func() { n.finishScatter(reqID, false) })
	op.retry.armLocked(n, func() { n.resendScatter(reqID) })
	n.mu.Unlock()

	for _, p := range pieces {
		n.handlePiece(p)
	}
	return nil
}

func (n *Node) finishScatter(reqID uint64, complete bool) {
	n.mu.Lock()
	op, ok := n.scatters[reqID]
	if !ok {
		n.mu.Unlock()
		return
	}
	delete(n.scatters, reqID)
	op.timer.Stop()
	op.retry.stop()
	o := outcome{
		complete:   complete,
		responders: len(op.responders),
		maxHops:    op.maxHops,
		retried:    op.retry.attempt > 0,
	}
	if !complete {
		for _, g := range op.groups {
			missing := g.cover.MissingRegions(g.tree, op.clamped, g.region, 4)
			for _, v := range g.versions {
				for _, miss := range missing {
					o.uncovered = append(o.uncovered, fmt.Sprintf("v%d:%s", v, miss))
				}
			}
		}
	}
	n.mu.Unlock()
	op.acc.deliver(o)
}

// handlePiece processes a piece at any hop, local dispatch or wire
// arrival alike: answer what is (inside) this node's region, re-split
// what covers several nodes here, route everything else. Pieces arrive
// from peers, so the fields the decomposition indexes by are validated
// here, once, before anything trusts them.
func (n *Node) handlePiece(p piece) {
	if !n.ov.Joined() {
		return
	}
	ix, ok := n.getIndex(p.index)
	if !ok || len(p.versions) == 0 || !p.rect.Valid() || p.rect.Dims() != ix.sch.IndexDims {
		n.droppedPieces.Add(1)
		return
	}
	myCode := n.ov.Code()
	switch {
	case p.historic || myCode.IsPrefixOf(p.region):
		n.answerPiece(ix, &p)
	case p.region.IsPrefixOf(myCode):
		// The region covers several nodes here: re-split at our depth.
		if !n.checkQuerySkew(ix, &p) {
			return
		}
		for _, sub := range ix.tree(uint32(p.versions[0])).Decompose(p.rect, myCode.Len()) {
			c := p.child(sub.Rect, sub.Code)
			if c.region.Equal(myCode) {
				n.answerPiece(ix, &c)
			} else {
				n.routePiece(&c, "")
			}
		}
	default:
		n.routePiece(&p, "")
	}
}

// checkQuerySkew guards every tree-dependent step: a decomposition is
// only valid against the exact tree the originator used, so an epoch
// mismatch drops the piece and repairs whichever side is behind (pull if
// us, push if them). The originator's retransmission or a fresh query
// converges once the trees agree; a dropped stale piece can at worst
// time out incomplete, never complete falsely. Whether the answer step
// is tree-dependent too is the resolver's call (epochOnAnswer).
func (n *Node) checkQuerySkew(ix *index, p *piece) bool {
	version := uint32(p.versions[0])
	local := ix.epochOf(version)
	if p.epoch == local {
		return true
	}
	n.skewQueries.Add(1)
	if p.epoch > local {
		n.treePull(p.origin, ix.sch.Tag, version)
	} else {
		n.treePushTo(p.origin, ix, version)
	}
	return false
}

// routePiece forwards a piece one hop toward its region (hypercube.Route),
// avoiding the exclude contact when another exit exists. At a dead end
// the region's nodes are unreachable from here: a node backing the
// region up serves it from replicas (§3.8), any other sends it on its
// detour or, with none left, drops it for the originator's retransmission.
// The originator records each first hop so a retransmission can leave
// through a different one.
func (n *Node) routePiece(p *piece, exclude string) {
	next, detour := n.ov.Route(p.region, int(p.hops), p.from, exclude)
	if detour && n.serveFromReplicas(p) {
		return
	}
	if next == "" {
		n.deadEnds.Add(1)
		return
	}
	n.forwarded.Add(1)
	if p.origin == n.ep.Addr() {
		n.mu.Lock()
		if op, ok := n.scatters[p.reqID]; ok {
			if p.whole {
				op.wholeHop = next
			} else {
				op.retryHops[p.region] = next
			}
		}
		n.mu.Unlock()
	}
	fwd := *p
	fwd.hops++
	n.send(next, fwd.kind.request(fwd))
}

// answerPiece resolves a piece from local storage and responds directly
// to the originator. With an active history pointer the local answer
// goes back without a coverage claim and the pointer target provides the
// covering answer for pre-split data (§3.4) — the two sides' record sets
// are disjoint (stored after vs before the split). Storage reads run
// against lock-free snapshots; no node-wide lock is held.
func (n *Node) answerPiece(ix *index, p *piece) {
	if p.kind.epochOnAnswer(*p) && !n.checkQuerySkew(ix, p) {
		return
	}
	histActive, histAddr := ix.history(n.clock.Now())
	n.reply(ix, p, !histActive, false)
	if histActive {
		// Delegate coverage to the split sibling, which still holds the
		// pre-split records of this region.
		fwd := p.child(p.rect, p.region)
		fwd.historic = true
		fwd.hops++
		n.send(histAddr, fwd.kind.request(fwd))
	}
}

// reply resolves p and delivers the answer to the originator,
// short-circuiting when that is this node.
func (n *Node) reply(ix *index, p *piece, hasCover, replica bool) {
	a := answer{
		reqID: p.reqID, from: n.ov.Info(), hasCover: hasCover,
		cover: p.region, versions: p.versions, hops: p.hops,
	}
	a.body = p.kind.resolve(n, ix, *p, a, replica)
	if p.origin == n.ep.Addr() {
		n.handleAnswer(a)
		return
	}
	n.send(p.origin, a.body)
}

// serveFromReplicas serves a dead region's piece from replicated data;
// it reports whether it took responsibility for the piece.
func (n *Node) serveFromReplicas(p *piece) bool {
	ix, ok := n.getIndex(p.index)
	if !ok {
		return false
	}
	covered := false         // some owner we replicate contains the whole region
	var within []bitstr.Code // owners strictly inside the region
	for _, owner := range ix.ownerCodes() {
		switch {
		case owner.IsPrefixOf(p.region):
			covered = true
		case p.region.IsPrefixOf(owner):
			within = append(within, owner)
		}
	}
	if covered {
		n.reply(ix, p, true, true)
		return true
	}
	if len(within) == 0 {
		return false
	}
	// Replicas cover only parts of the region: answer those parts and
	// re-dispatch the rest through the full piece logic — a part may be
	// (inside) this node's own region, in which case it must be answered
	// from primary storage, not re-routed into a dead end.
	depth := within[0].Len()
	for _, o := range within {
		if o.Len() < depth {
			depth = o.Len()
		}
	}
	owned := make(map[bitstr.Code]bool, len(within))
	for _, o := range within {
		owned[o.Prefix(depth)] = true
	}
	for _, sub := range ix.tree(uint32(p.versions[0])).Decompose(p.rect, depth) {
		c := p.child(sub.Rect, sub.Code)
		if owned[sub.Code] {
			n.reply(ix, &c, true, true)
		} else {
			n.handlePiece(c)
		}
	}
	return true
}

// answerArrived is the wire entry for responses. A covering response is
// its region's end-to-end ack; self-answers short-circuit through reply,
// so the counter stays wire-only like the insert acks'.
func (n *Node) answerArrived(a answer) {
	if a.hasCover {
		n.acksReceived.Add(1)
	}
	n.handleAnswer(a)
}

// handleAnswer assembles responses at the originator: the one admission
// rule below drops an overlapping covering answer, the accumulator
// decides whether the rest's payload and coverage claim are admissible,
// and the cover tries decide completion.
func (n *Node) handleAnswer(a answer) {
	n.mu.Lock()
	op, ok := n.scatters[a.reqID]
	if !ok {
		n.mu.Unlock()
		return // late or duplicate completion
	}
	op.responders[a.from.Addr] = true
	if int(a.hops) > op.maxHops {
		op.maxHops = int(a.hops)
	}
	// An answer names a group only by carrying exactly its versions: a
	// stale or hostile subset must not complete the versions it leaves out.
	var trie *coverSet
	for i := range op.groups {
		if slices.Equal(op.groups[i].versions, a.versions) {
			trie = op.groups[i].cover
			break
		}
	}
	// A covering answer is admitted only while it keeps its group's cover
	// trie prefix-free: a cover inside accepted coverage repeats what was
	// admitted (a retransmission race, a fail-over answer after the
	// owner's), and one strictly containing accepted covers would repeat
	// their interior. Both are dropped, and the retransmission layer
	// re-asks the regions genuinely missing.
	if a.hasCover && trie != nil && (trie.Covers(a.cover) || trie.hasExtension(a.cover)) {
		n.coverDropped.Add(1)
		n.mu.Unlock()
		return
	}
	complete := false
	if op.acc.admit(a, trie) && a.hasCover && trie != nil {
		trie.Add(a.cover)
		complete = true
		for _, g := range op.groups {
			if !g.cover.CoversRect(g.tree, op.clamped, g.region) {
				complete = false
				break
			}
		}
	}
	n.mu.Unlock()
	if complete {
		n.finishScatter(a.reqID, true)
	}
}

// resendScatter fires when an operation's retry timer elapses before
// full coverage: the cover tries know exactly which regions never
// answered, so instead of replaying the whole operation the originator
// re-issues targeted pieces for the missing regions, excluding the first
// hop each region's last attempt used. Exhaustion suspects the last hops
// of the regions still missing and leaves the op to its QueryTimeout.
func (n *Node) resendScatter(reqID uint64) {
	n.mu.Lock()
	op, ok := n.scatters[reqID]
	if !ok {
		n.mu.Unlock()
		return
	}
	// lastHop is the first hop a missing region's last attempt used: its
	// own re-issue's, else — no region-specific attempt yet — the whole
	// dispatch's, the only path tried so far.
	lastHop := func(region bitstr.Code) string {
		if hop := op.retryHops[region]; hop != "" {
			return hop
		}
		return op.wholeHop
	}
	if !op.retry.advanceLocked(n) {
		var hops []string
		for _, g := range op.groups {
			for _, region := range g.cover.MissingRegions(g.tree, op.clamped, g.region, 64) {
				hops = append(hops, lastHop(region))
			}
		}
		n.mu.Unlock()
		n.suspectHops(hops)
		return
	}

	type resend struct {
		p       piece
		exclude string
	}
	var work []resend
	var buf embed.Scratch
	for _, g := range op.groups {
		for _, region := range g.cover.MissingRegions(g.tree, op.clamped, g.region, 64) {
			// A re-issued piece carries its region's share of the query,
			// as a decomposed piece does: the full rectangle would fan out
			// of the region at the first node that re-splits it. Every
			// missing region meets op.clamped (the coverage walk visits
			// no other).
			rect, _ := cellClip(&buf, g.tree, op.clamped, region)
			work = append(work, resend{exclude: lastHop(region), p: piece{
				kind: op.kind, reqID: reqID, origin: n.ep.Addr(), index: op.index,
				versions: g.versions, rect: rect.Clone(), region: region, arg: op.arg,
				epoch: g.epoch, attempt: uint8(op.retry.attempt),
			}})
		}
	}
	n.retransmits.Add(uint64(len(work)))
	n.mu.Unlock()

	for i := range work {
		w := &work[i]
		if n.ov.Owns(w.p.region) {
			// Ownership shifted to us (takeover) since the last attempt.
			n.handlePiece(w.p)
		} else {
			n.routePiece(&w.p, w.exclude)
		}
	}
}

// cellClip returns rect ∩ the cell tree gives region: what a piece for
// region may visit. ok is false when the two do not meet. The result is
// a view of buf, which it overwrites (Clone it to keep it): a cursor's
// rectangle intersected in place, with no allocation for trees of up to
// eight dimensions.
func cellClip(buf *embed.Scratch, tree *embed.Tree, rect schema.Rect, region bitstr.Code) (schema.Rect, bool) {
	cur := tree.At(buf, region)
	c := cur.Rect()
	for i := range c.Lo {
		c.Lo[i], c.Hi[i] = max(c.Lo[i], rect.Lo[i]), min(c.Hi[i], rect.Hi[i])
		if c.Lo[i] > c.Hi[i] {
			return c, false
		}
	}
	return c, true
}
