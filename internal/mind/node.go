// Package mind implements the MIND node: the distributed
// multi-dimensional index system of the paper, glued together from the
// hypercube overlay (routing, joins, failure recovery), the
// locality-preserving data-space embedding, per-index versioned local
// storage, replication, and the daily histogram-driven re-balancing.
//
// The public surface mirrors §3.2's interface: CreateIndex, DropIndex,
// Insert and Query, callable on any node of the overlay.
package mind

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mind/internal/bitstr"
	"mind/internal/embed"
	"mind/internal/hypercube"
	"mind/internal/schema"
	"mind/internal/store"
	"mind/internal/transport"
	"mind/internal/wire"
)

// Node is one MIND instance.
//
// Locking: node state is sharded so the insert and query hot paths
// never serialize on one big lock (the paper's prototype funnelled all
// local execution through a single DAC queue; see DESIGN.md,
// "Concurrency model").
//
//   - mu guards operation tracking and node-wide control maps: inserts
//     and their groups, scatters, reports, every retrySchedule, seenOps,
//     collect, triggerSubs, clientOps, clientReads, rng.
//   - ixMu guards the indices map only; per-index mutable state is
//     behind each index's own mutex, and the stores are internally
//     concurrent (one writer mutex per version's ladder, lock-free
//     snapshot reads).
//   - Counters and id sequences are atomics.
//   - linkMu (tupleLinks) is an independent leaf.
//
// Lock order: mu → ixMu → index.mu → store internals. A leaf mutex is
// never held while acquiring an earlier lock, sending, or calling into
// the overlay.
type Node struct {
	mu    sync.Mutex
	ep    transport.Endpoint
	clock transport.Clock
	cfg   Config
	ov    *hypercube.Overlay
	rng   *rand.Rand // guarded by mu (retry jitter)

	ixMu    sync.RWMutex
	indices map[string]*index

	inserts  map[uint64]*insertOp  // mu; registered by sendInserts only (insert.go)
	scatters map[uint64]*scatterOp // mu; in-flight queries and aggregates (scatter.go)
	seenOps  *dedupSet             // mu; flood dedup (create/drop index, install, retire, recall, trigger remove)

	// insertsPeak is the most entries inserts has held since it was
	// made: a table that drains after a peak of insertsShrinkAt or more
	// is replaced (takeInsertLocked), since a Go map never shrinks.
	insertsPeak int // mu

	collect map[string]*histCollect  // mu; designated-node histogram state
	reports map[uint64]*histReportOp // mu; originator-side tracked reports

	// repairAt rate-limits skew-repair traffic per key (reversion.go).
	repairAt map[string]time.Time // mu
	// reinsertOnJoin flags that the next completed (re)join must re-insert
	// primary records this node no longer owns (post-step-down
	// reconciliation, reversion.go).
	reinsertOnJoin bool // mu

	triggerSubs map[uint64]*triggerSub // mu; subscriber-side standing queries

	reqSeq atomic.Uint64
	// pendingGauge mirrors len(inserts) as an atomic so hot admission
	// paths (the ingest engine's backpressure check) can read the
	// node-level in-flight insert count without taking mu.
	pendingGauge atomic.Int64
	// addrTag is the origin-unique namespace of the ids nextReq mints.
	// It is salted with the node's start instant: a restarted node
	// reuses its address and restarts its sequence counter, so an
	// unsalted namespace would re-mint the previous incarnation's ids
	// and receivers that still remember them would silently swallow the
	// new records as idempotent duplicates — while acking them.
	addrTag uint64

	// Stats counters (read via Stats).
	forwarded  atomic.Uint64
	stored     atomic.Uint64
	replicated atomic.Uint64
	// Reliable-request-layer counters (reliable.go).
	reqTracked   atomic.Uint64 // acked-tracked inserts and queries issued
	retransmits  atomic.Uint64 // retransmissions sent
	acksReceived atomic.Uint64 // end-to-end acks received over the wire
	dedupHits    atomic.Uint64 // duplicate requests absorbed at this receiver
	// Reversioning counters (reversion.go).
	verInstalls        atomic.Uint64 // tree installs applied (flood, pull or sync)
	verInstallsRefused atomic.Uint64 // installs refused by epoch ordering
	verRetired         atomic.Uint64 // versions retired locally
	treePulls          atomic.Uint64 // TreePull requests sent
	treePushes         atomic.Uint64 // TreePush messages sent
	treeSyncs          atomic.Uint64 // TreeSyncReq exchanges initiated
	skewInserts        atomic.Uint64 // inserts that hit a tree-epoch mismatch
	skewQueries        atomic.Uint64 // query/aggregate pieces dropped on mismatch
	reshuffled         atomic.Uint64 // records re-inserted after a mid-flip install
	stepDowns          atomic.Uint64 // lost split-brain disputes
	reinserted         atomic.Uint64 // records re-inserted after a step-down rejoin
	// droppedPieces counts query/aggregate pieces refused at handlePiece's
	// guard: unknown index, no versions, invalid or wrong-dimension rect.
	droppedPieces atomic.Uint64
	// droppedRecords counts peer-supplied records refused where they
	// would enter a store (routeInsert at the owner, handleReplicateRun):
	// wrong arity for the index schema.
	droppedRecords atomic.Uint64
	deadEnds       atomic.Uint64 // routed messages dropped with no hop left (hypercube.Route)
	aggAnswered    atomic.Uint64 // aggregate pieces answered from local summaries (aggquery.go)
	coverDropped   atomic.Uint64 // covering answers dropped for overlapping coverage (scatter.go)
	// clientOps caches ClientInsert acks (nil while in flight) so a
	// retransmitted insert is idempotent; clientReads holds the client
	// reads in flight (client_api.go).
	clientOps   *genSet[*wire.ClientAck] // mu
	clientReads map[uint64]struct{}      // mu
	// Admission control (admission.go). admMu is an independent leaf.
	admMu         sync.Mutex
	clientBuckets *bucketMap
	gossipBuckets *bucketMap
	shedInserts   atomic.Uint64
	shedQueries   atomic.Uint64
	shedGossip    atomic.Uint64
	// tupleLinks counts insert tuples sent per outgoing overlay link,
	// keyed by the peer's address — the Fig 12 metric.
	linkMu     sync.Mutex
	tupleLinks map[string]uint64

	// Envelope counters (batch.go).
	batchesSent atomic.Uint64
	batchedMsgs atomic.Uint64
	batchesRecv atomic.Uint64
}

// NewNode creates a node bound to an endpoint and clock. The node
// installs itself as the endpoint's handler.
func NewNode(ep transport.Endpoint, clock transport.Clock, cfg Config) *Node {
	n := &Node{
		ep:            ep,
		clock:         clock,
		cfg:           cfg,
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		indices:       make(map[string]*index),
		inserts:       make(map[uint64]*insertOp),
		scatters:      make(map[uint64]*scatterOp),
		seenOps:       newDedupSet(dedupCap),
		collect:       make(map[string]*histCollect),
		reports:       make(map[uint64]*histReportOp),
		repairAt:      make(map[string]time.Time),
		addrTag:       hashAddr(ep.Addr()) ^ mix64(uint64(clock.Now().UnixNano())),
		tupleLinks:    make(map[string]uint64),
		clientOps:     newGenSet[*wire.ClientAck](dedupCap),
		clientReads:   make(map[uint64]struct{}),
		clientBuckets: newBucketMap(),
		gossipBuckets: newBucketMap(),
	}
	n.ov = hypercube.New(ep, clock, cfg.Overlay, cfg.Seed^0x5f5e100, hypercube.Callbacks{
		OnJoined:       n.onJoined,
		OnSplit:        n.onSplit,
		OnTakeover:     n.onTakeover,
		OnContactDead:  n.onContactDead,
		OnContactMoved: n.onContactMoved,
		OnRegionDead:   n.onRegionDead,
		IndexDefs:      n.indexDefs,
		VersionDigest:  n.versionDigest,
		OnVersionSkew:  n.onVersionSkew,
		OnStepDown:     n.onStepDown,
	})
	ep.SetHandler(n.dispatch)
	return n
}

func hashAddr(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 spreads a low-entropy value (a start timestamp) across all 64
// bits, so the namespace salt reaches addrTag's high word.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Bootstrap founds a new overlay with this node.
func (n *Node) Bootstrap() { n.ov.Bootstrap() }

// Join enters an existing overlay through the seed node.
func (n *Node) Join(seed string) { n.ov.Join(seed) }

// Joined reports overlay membership.
func (n *Node) Joined() bool { return n.ov.Joined() }

// Addr returns the node's transport address.
func (n *Node) Addr() string { return n.ep.Addr() }

// Code returns the node's overlay code.
func (n *Node) Code() bitstr.Code { return n.ov.Code() }

// Overlay exposes the underlying overlay (read-mostly; used by tests and
// the experiment harness).
func (n *Node) Overlay() *hypercube.Overlay { return n.ov }

// Close stops the node's timers.
func (n *Node) Close() { n.ov.Close() }

// getIndex looks an index up by tag.
func (n *Node) getIndex(tag string) (*index, bool) {
	n.ixMu.RLock()
	ix, ok := n.indices[tag]
	n.ixMu.RUnlock()
	return ix, ok
}

// sortedIndices snapshots the index set in ascending tag order, so
// iteration-driven sends stay deterministic under simnet.
func (n *Node) sortedIndices() []*index {
	n.ixMu.RLock()
	tags := make([]string, 0, len(n.indices))
	for tag := range n.indices {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	out := make([]*index, len(tags))
	for i, tag := range tags {
		out[i] = n.indices[tag]
	}
	n.ixMu.RUnlock()
	return out
}

// Stats is a snapshot of node-level counters.
type Stats struct {
	Forwarded  uint64 // records and query pieces routed on, each once per hop
	Stored     uint64 // records stored as primary owner
	Replicated uint64 // replica records stored

	// An envelope is a write-path frame that carries more than one record:
	// one run, or a wire.Batch of several (batch.go).
	BatchesSent    uint64  // envelopes sent
	BatchesRecv    uint64  // envelopes received and handled
	BatchedMsgs    uint64  // records carried by sent envelopes
	BatchOccupancy float64 // mean records per sent envelope (NaN before the first)

	Requests     uint64 // acked-tracked inserts, queries, aggregates and reports issued
	Retransmits  uint64 // reliable-layer retransmissions sent
	AcksReceived uint64 // end-to-end acks received over the wire
	// DedupHits counts duplicate requests absorbed at this receiver: a
	// record already stored, a client RPC already seen, a histogram
	// report already collected. A re-asked query or aggregate piece is
	// answered again and not counted.
	DedupHits uint64

	// Admission-control sheds (admission.go): explicit overload refusals.
	ShedInserts uint64 // client inserts / index control refused
	ShedQueries uint64 // client queries refused
	ShedGossip  uint64 // flood/control gossip dropped at admission

	// AggAnswered counts aggregate pieces answered from local summaries.
	AggAnswered uint64
	// CoverDropped counts covering answers, of either kind, the
	// originator dropped for overlapping coverage (retransmission races,
	// fail-over answers; the remainder regions are re-asked).
	CoverDropped uint64

	// DroppedPieces counts query/aggregate pieces refused as malformed
	// (unknown index, no versions, invalid or wrong-dimension rectangle).
	DroppedPieces uint64
	// DroppedRecords counts insert and replicate records refused at the owner
	// or replica store for not having the index schema's arity. Such a
	// record is neither stored, acked nor replicated.
	DroppedRecords uint64
	DeadEnds       uint64 // routed messages of any kind dropped with no greedy hop and no detour left; their operation's retry resends them

	// In-flight originator-side operations still awaiting an ack, a
	// covering response, or their timeout. All are zero at quiescence;
	// the chaos harness asserts that after every settled epoch.
	PendingInserts int
	PendingQueries int
	PendingAggs    int
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	s := Stats{
		Forwarded: n.forwarded.Load(), Stored: n.stored.Load(), Replicated: n.replicated.Load(),
		Requests: n.reqTracked.Load(), Retransmits: n.retransmits.Load(), AcksReceived: n.acksReceived.Load(), DedupHits: n.dedupHits.Load(),
		ShedInserts: n.shedInserts.Load(), ShedQueries: n.shedQueries.Load(), ShedGossip: n.shedGossip.Load(),
		AggAnswered: n.aggAnswered.Load(), CoverDropped: n.coverDropped.Load(),
		DroppedPieces: n.droppedPieces.Load(), DroppedRecords: n.droppedRecords.Load(), DeadEnds: n.deadEnds.Load(),
		BatchesSent: n.batchesSent.Load(), BatchedMsgs: n.batchedMsgs.Load(), BatchesRecv: n.batchesRecv.Load(),
	}
	s.BatchOccupancy = float64(s.BatchedMsgs) / float64(s.BatchesSent) // 0/0 is NaN before the first
	n.mu.Lock()
	s.PendingInserts = len(n.inserts)
	for _, op := range n.scatters {
		op.acc.tally(&s)
	}
	n.mu.Unlock()
	return s
}

// PendingInserts returns the number of in-flight inserts, repair
// re-inserts included, from a lock-free gauge. The ingest engine polls it
// on every admission decision, where taking mu would serialize producers
// against the node's own operation tracking.
func (n *Node) PendingInserts() int { return int(n.pendingGauge.Load()) }

// TupleLinkCounts snapshots how many insert tuples this node sent over
// each outgoing overlay link, keyed "self→peer" (Fig 12's per-link
// traffic).
func (n *Node) TupleLinkCounts() map[string]uint64 {
	prefix := n.ep.Addr() + "→"
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	out := make(map[string]uint64, len(n.tupleLinks))
	for next, v := range n.tupleLinks {
		out[prefix+next] = v
	}
	return out
}

// countTuples records insert tuples leaving over the link to next.
func (n *Node) countTuples(next string, k uint64) {
	n.linkMu.Lock()
	n.tupleLinks[next] += k
	n.linkMu.Unlock()
}

// send encodes and transmits, ignoring transport-level errors. Both
// transports have consumed the encoded bytes by the time Send returns
// (simnet copies, tcpnet copies into its per-peer send queue), so the
// buffer recycles immediately. Envelope-scoped callers go through post
// instead (batch.go).
func (n *Node) send(to string, m wire.Message) {
	data := wire.Encode(m)
	_ = n.ep.Send(to, data)
	wire.RecycleBuf(data)
}

// sendRouted sends a routed control message (histogram report, trigger
// install) one hop toward target, greedy or on its detour
// (hypercube.Route), or drops and counts it when no hop is left: the
// operation's retry resends it.
func (n *Node) sendRouted(target bitstr.Code, hops int, from string, m wire.Message) {
	if next, _ := n.ov.Route(target, hops, from, ""); next != "" {
		n.send(next, m)
		return
	}
	n.deadEnds.Add(1)
}

// nextReq issues a node-unique request id.
func (n *Node) nextReq() uint64 {
	return n.addrTag&0xffffffff00000000 | n.reqSeq.Add(1)&0xffffffff
}

// dispatch is the endpoint handler: decode, give the overlay first
// claim, then handle data/control messages.
func (n *Node) dispatch(from string, data []byte) {
	m, err := wire.Decode(data)
	if err != nil {
		return // corrupt frame; drop
	}
	n.handleMessage(from, m)
}

func (n *Node) handleMessage(from string, m wire.Message) {
	if b, ok := m.(*wire.Batch); ok {
		n.handleBatch(from, b)
		return
	}
	if n.ov.Handle(from, m) {
		return
	}
	switch m.(type) {
	case *wire.CreateIndex, *wire.DropIndex, *wire.HistInstall,
		*wire.RetireVersion, *wire.RegionRecall:
		// Flood/control gossip is redundant by construction (every
		// receiver re-floods, ids dedup), so overload refusal here is a
		// counted drop before markOp: the same operation arriving later
		// or from another contact still propagates.
		if !n.admitGossip(from) {
			n.shedGossip.Add(1)
			return
		}
	}
	switch msg := m.(type) {
	case *wire.InsertRun, *wire.InsertAcks, *wire.ReplicateRun:
		n.handleWrite(from, msg)
	case *wire.Query:
		n.handlePiece(pieceFromQuery(msg, from))
	case *wire.SubQuery:
		n.handlePiece(pieceFromSubQuery(msg, from))
	case *wire.AggQuery:
		n.handlePiece(pieceFromAggQuery(msg, from))
	case *wire.QueryResp:
		n.answerArrived(answerFromQueryResp(msg))
	case *wire.AggResp:
		n.answerArrived(answerFromAggResp(msg))
	case *wire.CreateIndex:
		n.handleCreateIndex(msg)
	case *wire.DropIndex:
		n.handleDropIndex(msg)
	case *wire.HistReport:
		n.handleHistReport(from, msg)
	case *wire.HistReportAck:
		n.handleHistReportAck(msg)
	case *wire.HistInstall:
		n.handleHistInstall(msg)
	case *wire.TreePull:
		n.handleTreePull(msg)
	case *wire.TreePush:
		n.handleTreePush(msg)
	case *wire.TreeSyncReq:
		n.handleTreeSyncReq(msg)
	case *wire.TreeSyncResp:
		n.handleTreeSyncResp(msg)
	case *wire.ClientVersions:
		n.handleClientVersions(from, msg)
	case *wire.ClientInsert:
		n.handleClientInsert(from, msg)
	case *wire.ClientQuery:
		n.handleClientQuery(from, msg)
	case *wire.ClientAgg:
		n.handleClientAgg(from, msg)
	case *wire.ClientCreateIndex:
		n.handleClientCreateIndex(from, msg)
	case *wire.ClientDropIndex:
		n.handleClientDropIndex(from, msg)
	case *wire.TriggerInstall:
		n.handleTriggerInstall(from, msg)
	case *wire.TriggerFire:
		n.handleTriggerFire(msg)
	case *wire.TriggerRemove:
		n.handleTriggerRemove(msg)
	case *wire.RetireVersion:
		n.handleRetireVersion(msg)
	case *wire.RegionRecall:
		n.handleRegionRecall(msg)
	}
}

// RetireVersion deletes one index version's records and cut tree on
// every node — the §3.7 version-management operation the paper deferred
// to future work. Old daily versions are retired once their data has
// aged out of any query horizon.
func (n *Node) RetireVersion(tag string, version uint32) error {
	if _, ok := n.getIndex(tag); !ok {
		return fmt.Errorf("mind: unknown index %q", tag)
	}
	opID := n.nextReq()
	n.markOp(opID)
	n.retireLocal(tag, version)
	n.flood(&wire.RetireVersion{OpID: opID, Index: tag, Version: version})
	return nil
}

func (n *Node) retireLocal(tag string, version uint32) {
	ix, ok := n.getIndex(tag)
	if !ok {
		return
	}
	// Sticky marker: the retirement epoch beats the version's live epoch,
	// so a straggler re-flooding the old install cannot resurrect it.
	n.applyRetire(ix, version, retiredEpochBit|ix.epochOf(version)&^retiredEpochBit)
}

func (n *Node) handleRetireVersion(m *wire.RetireVersion) {
	if !n.markOp(m.OpID) {
		return
	}
	n.retireLocal(m.Index, m.Version)
	n.flood(m)
}

// indexDefs snapshots all index definitions for join accepts, in
// ascending tag order so the encoded accept is reproducible.
func (n *Node) indexDefs() []wire.IndexDef {
	ixs := n.sortedIndices()
	out := make([]wire.IndexDef, 0, len(ixs))
	for _, ix := range ixs {
		out = append(out, ix.def())
	}
	return out
}

// onJoined installs the indices received in the join accept and arms the
// history pointer toward the split sibling (§3.4). On a rejoin (the node
// already holds the index — a post-step-down re-entry after a healed
// split-brain) the accept instead reconciles version state: any version
// epoch the acceptor's side is ahead on is adopted, retirements
// included, so the fenced halves converge on one tree per version.
func (n *Node) onJoined(accept *wire.JoinAccept) {
	type mergeItem struct {
		ix *index
		vd wire.VersionDef
	}
	var merges []mergeItem
	n.ixMu.Lock()
	for _, d := range accept.Indices {
		if ix, exists := n.indices[d.Schema.Tag]; exists {
			// A rejoin splits the sibling's region exactly like a fresh
			// join, and the records of the annexed region stay behind
			// there — without re-arming the pointer, a post-step-down
			// node silently stops covering them (found by the chaos
			// harness's long-partition schedules).
			if !n.cfg.TransferOnSplit {
				ix.setHistory(accept.Sibling.Addr, accept.Sibling.Code, n.clock.Now().Add(historyTTL))
			}
			for _, vd := range d.Versions {
				if vd.Version == baseVersionSentinel || vd.Epoch == 0 {
					continue
				}
				if vd.Epoch > ix.epochOf(vd.Version) {
					merges = append(merges, mergeItem{ix: ix, vd: vd})
				}
			}
			continue
		}
		ix, err := indexFromDef(d)
		if err != nil {
			continue
		}
		if !n.cfg.TransferOnSplit {
			// The index is not yet published, so direct field access is
			// safe here.
			ix.histAddr = accept.Sibling.Addr
			ix.histRegion = accept.Sibling.Code
			ix.histUntil = n.clock.Now().Add(historyTTL)
		}
		n.indices[d.Schema.Tag] = ix
	}
	n.ixMu.Unlock()

	for _, mi := range merges {
		if mi.vd.Epoch&retiredEpochBit != 0 {
			n.applyRetire(mi.ix, mi.vd.Version, mi.vd.Epoch)
		} else if tree, err := embed.Unmarshal(mi.vd.Tree); err == nil && tree.Dims() == mi.ix.sch.IndexDims {
			n.applyInstall(mi.ix, mi.vd.Version, tree, mi.vd.Epoch)
		}
	}

	n.mu.Lock()
	reinsert := n.reinsertOnJoin
	n.reinsertOnJoin = false
	n.mu.Unlock()
	if reinsert {
		n.reinsertForeignPrimaries()
	}
}

// onContactDead reacts to the overlay declaring a contact failed: any
// index whose history pointer targets the dead peer stops delegating
// query coverage to it. Found by the chaos harness: a joiner whose
// split sibling later died kept forwarding Historic sub-queries into
// the void for the full historyTTL, so every query touching its region
// timed out incomplete.
func (n *Node) onContactDead(info wire.NodeInfo) {
	for _, ix := range n.sortedIndices() {
		ix.clearHistory(info.Addr)
	}
}

// onContactMoved reacts to a peer observed under a changed code: any
// history pointer armed at the peer's old position no longer has a
// live target region behind it (the move re-homed the stranded
// records), so stop delegating coverage to it.
func (n *Node) onContactMoved(info wire.NodeInfo) {
	for _, ix := range n.sortedIndices() {
		ix.observeHistoryTarget(info.Addr, info.Code)
	}
}

// onRegionDead reacts to a takeover flood declaring a region dead: a
// history pointer into that region has a corpse for a target, whether
// or not the target was still in this node's contact table.
func (n *Node) onRegionDead(dead bitstr.Code) {
	for _, ix := range n.sortedIndices() {
		ix.clearHistoryRegion(dead)
	}
}

// --- Index lifecycle -----------------------------------------------------

// CreateIndex installs a new index locally and floods its definition
// across the overlay (§3.4). A nil tree gets the uniform embedding; pass
// a histogram-balanced tree to start balanced (§3.7).
func (n *Node) CreateIndex(sch *schema.Schema, tree *embed.Tree) error {
	if err := sch.Validate(); err != nil {
		return err
	}
	if tree == nil {
		tree = embed.Uniform(sch.Bounds())
	}
	if tree.Dims() != sch.IndexDims {
		return fmt.Errorf("mind: tree dims %d != schema dims %d", tree.Dims(), sch.IndexDims)
	}
	n.ixMu.Lock()
	if _, exists := n.indices[sch.Tag]; exists {
		n.ixMu.Unlock()
		return fmt.Errorf("mind: index %q already exists", sch.Tag)
	}
	ix := newIndex(sch.Clone(), tree)
	n.indices[sch.Tag] = ix
	n.ixMu.Unlock()
	def := ix.def()
	opID := n.nextReq()
	n.markOp(opID)

	n.flood(&wire.CreateIndex{OpID: opID, Def: def})
	return nil
}

// DropIndex removes an index locally and floods the removal.
func (n *Node) DropIndex(tag string) error {
	n.ixMu.Lock()
	if _, exists := n.indices[tag]; !exists {
		n.ixMu.Unlock()
		return fmt.Errorf("mind: unknown index %q", tag)
	}
	delete(n.indices, tag)
	n.ixMu.Unlock()
	opID := n.nextReq()
	n.markOp(opID)

	n.flood(&wire.DropIndex{OpID: opID, Tag: tag})
	return nil
}

// Indices lists the tags of installed indices in ascending order.
func (n *Node) Indices() []string {
	n.ixMu.RLock()
	out := make([]string, 0, len(n.indices))
	for tag := range n.indices {
		out = append(out, tag)
	}
	n.ixMu.RUnlock()
	sort.Strings(out)
	return out
}

// HasIndex reports whether the named index is installed.
func (n *Node) HasIndex(tag string) bool {
	_, ok := n.getIndex(tag)
	return ok
}

// IndexInfo is one installed index's introspection view: tag, the
// stored version set, record counts, and the per-version tree-epoch
// state. Served by the ops endpoint.
type IndexInfo struct {
	Tag            string     `json:"tag"`
	Versions       []uint32   `json:"versions"`
	PrimaryRecords int        `json:"primary_records"`
	ReplicaRecords int        `json:"replica_records"`
	Trees          []TreeInfo `json:"trees,omitempty"`
	// HistoryAddr is the active §3.4 history-pointer target, if any:
	// the split sibling still answering for this region's pre-split
	// records.
	HistoryAddr string `json:"history_addr,omitempty"`
	// Summary is the per-index aggregate rollup state (hierarchical
	// counters plus heavy-hitter sketches), summed over the primary
	// store's versions, each of which owns its rollup.
	Summary SummaryInfo `json:"summary"`
	// Stores is the shape of every stored version's ladders: levels, tail
	// fill and carry counters.
	Stores []StoreInfo `json:"stores,omitempty"`
}

// StoreInfo is one index version's store engines as the ladder sees
// them (store.Sharded.Shape); the primary ladder's CarriedRows over the
// records it holds is its write amplification, and a ladder's Bytes over
// its records its footprint — in the primary ladder ≈ 4 B per value
// while WideLevels is 0, up to 8 in the levels holding a value ≥ 2³².
// The replica ladder appends — every level one packed block, each
// column at the bits its range needs — so its Carries and CarriedRows
// stay 0.
type StoreInfo struct {
	Version  uint32             `json:"version"`
	Primary  *store.LadderShape `json:"primary,omitempty"`
	Replicas *store.LadderShape `json:"replicas,omitempty"`
}

// SummaryInfo is one index's rollup maintenance state: how many records
// the folded (static) and unfolded (delta) rollup halves hold across
// all versions, and how many delta folds have run. StaticRecords +
// DeltaRecords equals PrimaryRecords at quiescence — every rollup is
// owned by the version's ladder whose records it summarizes, fed by its
// inserts and dropped with it (chaos.CheckRollup holds nodes to it).
type SummaryInfo struct {
	StaticRecords uint64 `json:"static_records"`
	DeltaRecords  int    `json:"delta_records"`
	Folds         uint64 `json:"folds"`
}

// TreeInfo is one version's tree identity: the install epoch, or a
// retirement marker.
type TreeInfo struct {
	Version uint32 `json:"version"`
	Epoch   uint64 `json:"epoch"`
	Retired bool   `json:"retired"`
}

// IndexInfos snapshots every installed index in ascending tag order.
func (n *Node) IndexInfos() []IndexInfo {
	ixs := n.sortedIndices()
	out := make([]IndexInfo, 0, len(ixs))
	for _, ix := range ixs {
		info := IndexInfo{
			Tag:            ix.sch.Tag,
			Versions:       ix.primary.Versions(),
			PrimaryRecords: ix.primary.Len(),
			ReplicaRecords: ix.replicas.Len(),
		}
		for _, e := range ix.entries() {
			info.Trees = append(info.Trees, TreeInfo{
				Version: e.Version,
				Epoch:   e.Epoch &^ retiredEpochBit,
				Retired: e.Epoch&retiredEpochBit != 0,
			})
		}
		if active, addr := ix.history(n.clock.Now()); active {
			info.HistoryAddr = addr
		}
		versions := slices.Concat(info.Versions, ix.replicas.Versions())
		slices.Sort(versions)
		for _, v := range slices.Compact(versions) {
			si := StoreInfo{Version: v}
			if eng := ix.primary.Get(v); eng != nil {
				shape := eng.Shape()
				si.Primary = &shape
				staticN, deltaN, folds := eng.Rollup().Stats()
				info.Summary.StaticRecords += staticN
				info.Summary.DeltaRecords += deltaN
				info.Summary.Folds += folds
			}
			if eng := ix.replicas.Get(v); eng != nil {
				shape := eng.Shape()
				si.Replicas = &shape
			}
			info.Stores = append(info.Stores, si)
		}
		out = append(out, info)
	}
	return out
}

// StoredRecords returns the primary record count for an index (all
// versions), for storage-distribution experiments (Fig 13).
func (n *Node) StoredRecords(tag string) int {
	ix, ok := n.getIndex(tag)
	if !ok {
		return 0
	}
	return ix.primary.Len()
}

// StoredRecordsVersion returns the primary record count of one index
// version.
func (n *Node) StoredRecordsVersion(tag string, version uint32) int {
	ix, ok := n.getIndex(tag)
	if !ok || !ix.primary.Has(version) {
		return 0
	}
	return ix.primary.Version(version).Len()
}

// LocalQuery resolves a range query against this node's primary storage
// only (no routing) — the view a co-located monitor or a diagnostic tool
// sees of one node's share of the data.
func (n *Node) LocalQuery(tag string, rect schema.Rect) []schema.Record {
	ix, ok := n.getIndex(tag)
	if !ok {
		return nil
	}
	return ix.primary.QueryAll(rect)
}

// ReplicaRecords returns the replica record count for an index.
func (n *Node) ReplicaRecords(tag string) int {
	ix, ok := n.getIndex(tag)
	if !ok {
		return 0
	}
	return ix.replicas.Len()
}

// flood sends a control message to every contact; receivers re-flood
// once per OpID.
func (n *Node) flood(m wire.Message) {
	contacts := n.ov.Contacts()
	sort.Slice(contacts, func(i, j int) bool { return contacts[i].Addr < contacts[j].Addr })
	for _, c := range contacts {
		n.send(c.Addr, m)
	}
}

// markOp dedups a flooded operation id; it reports whether the op is new.
// The originator marks its own op ids through it too, so a copy flooded
// back is refused.
func (n *Node) markOp(opID uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.seenOps.Seen(opID)
}

func (n *Node) handleCreateIndex(m *wire.CreateIndex) {
	if !n.markOp(m.OpID) {
		return
	}
	n.ixMu.Lock()
	if _, exists := n.indices[m.Def.Schema.Tag]; !exists {
		if ix, err := indexFromDef(m.Def); err == nil {
			n.indices[m.Def.Schema.Tag] = ix
		}
	}
	n.ixMu.Unlock()
	n.flood(m)
}

func (n *Node) handleDropIndex(m *wire.DropIndex) {
	if !n.markOp(m.OpID) {
		return
	}
	n.ixMu.Lock()
	delete(n.indices, m.Tag)
	n.ixMu.Unlock()
	n.flood(m)
}
