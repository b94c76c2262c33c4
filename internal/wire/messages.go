package wire

import (
	"fmt"
	"math"

	"mind/internal/bitstr"
	"mind/internal/schema"
)

// Kind identifies a protocol message type on the wire.
type Kind uint8

// Message kinds. The join group implements the modified Adler join
// (§3.3); the maintenance group keeps neighbor tables and liveness; the
// data group carries inserts, queries and replicas (§3.5–3.6, §3.8); the
// control group handles index lifecycle and the daily histogram exchange
// (§3.4, §3.7).
const (
	KindInvalid Kind = iota

	// Join protocol.
	KindJoinLookup
	KindJoinLookupResp
	KindJoinRequest
	KindJoinPrepare
	KindJoinPrepareResp
	KindJoinAbort
	KindJoinAccept
	KindJoinReject
	KindJoinCommit

	// Overlay maintenance.
	KindHeartbeat
	_ // 11: reserved, was the heartbeat ack
	KindTakeover
	_ // 13: reserved, was the expanding-ring probe
	KindLivenessProbe
	KindLivenessReply
	_ // 16: reserved, was the expanding-ring resume notice

	// Data path.
	KindInsert
	KindInsertAck
	KindReplicate
	KindQuery
	KindSubQuery
	KindQueryResp

	// Control path.
	KindCreateIndex
	KindDropIndex
	KindHistReport
	KindHistInstall

	// Reversion reliability and version-skew catch-up (§3.7 under
	// faults): report acks, tree pull/push, and the heartbeat-driven
	// tree-summary exchange.
	KindHistReportAck
	KindTreePull
	KindTreePush
	KindTreeSyncReq
	KindTreeSyncResp

	// Epoch-fenced membership reconciliation after a healed partition.
	KindCollisionProbe
	KindCollisionReply
	KindCollisionHint

	// Aggregate path: COUNT/SUM/top-k answered from the summary layer
	// (DESIGN.md §4i).
	KindAggQuery
	KindAggResp
)

// kinds is the registry: every kind's name and, for the kinds Decode
// accepts, the constructor of its message. Kind.String, Decode and the
// tests all read this one table (DESIGN.md §6 lists it, and a test holds
// the two together). KindInvalid and KindFlowFrame have names only: the
// first is no message, the second is parsed by ParseFlowFrame.
var kinds = [256]struct {
	name string
	new  func() Message
}{
	KindInvalid: {name: "invalid"},

	KindJoinLookup:      {"join-lookup", func() Message { return new(JoinLookup) }},
	KindJoinLookupResp:  {"join-lookup-resp", func() Message { return new(JoinLookupResp) }},
	KindJoinRequest:     {"join-request", func() Message { return new(JoinRequest) }},
	KindJoinPrepare:     {"join-prepare", func() Message { return new(JoinPrepare) }},
	KindJoinPrepareResp: {"join-prepare-resp", func() Message { return new(JoinPrepareResp) }},
	KindJoinAbort:       {"join-abort", func() Message { return new(JoinAbort) }},
	KindJoinAccept:      {"join-accept", func() Message { return new(JoinAccept) }},
	KindJoinReject:      {"join-reject", func() Message { return new(JoinReject) }},
	KindJoinCommit:      {"join-commit", func() Message { return new(JoinCommit) }},

	KindHeartbeat:     {"heartbeat", func() Message { return new(Heartbeat) }},
	KindTakeover:      {"takeover", func() Message { return new(Takeover) }},
	KindLivenessProbe: {"liveness-probe", func() Message { return new(LivenessProbe) }},
	KindLivenessReply: {"liveness-reply", func() Message { return new(LivenessReply) }},

	KindInsert:    {"insert", func() Message { return new(InsertRun) }},
	KindInsertAck: {"insert-ack", func() Message { return new(InsertAcks) }},
	KindReplicate: {"replicate", func() Message { return new(ReplicateRun) }},
	KindQuery:     {"query", func() Message { return new(Query) }},
	KindSubQuery:  {"sub-query", func() Message { return new(SubQuery) }},
	KindQueryResp: {"query-resp", func() Message { return new(QueryResp) }},

	KindCreateIndex: {"create-index", func() Message { return new(CreateIndex) }},
	KindDropIndex:   {"drop-index", func() Message { return new(DropIndex) }},
	KindHistReport:  {"hist-report", func() Message { return new(HistReport) }},
	KindHistInstall: {"hist-install", func() Message { return new(HistInstall) }},

	KindHistReportAck: {"hist-report-ack", func() Message { return new(HistReportAck) }},
	KindTreePull:      {"tree-pull", func() Message { return new(TreePull) }},
	KindTreePush:      {"tree-push", func() Message { return new(TreePush) }},
	KindTreeSyncReq:   {"tree-sync-req", func() Message { return new(TreeSyncReq) }},
	KindTreeSyncResp:  {"tree-sync-resp", func() Message { return new(TreeSyncResp) }},

	KindCollisionProbe: {"collision-probe", func() Message { return new(CollisionProbe) }},
	KindCollisionReply: {"collision-reply", func() Message { return new(CollisionReply) }},
	KindCollisionHint:  {"collision-hint", func() Message { return new(CollisionHint) }},

	KindAggQuery: {"agg-query", func() Message { return new(AggQuery) }},
	KindAggResp:  {"agg-resp", func() Message { return new(AggResp) }},

	KindClientInsert:       {"client-insert", func() Message { return new(ClientInsert) }},
	KindClientQuery:        {"client-query", func() Message { return new(ClientQuery) }},
	KindClientCreateIndex:  {"client-create-index", func() Message { return new(ClientCreateIndex) }},
	KindClientDropIndex:    {"client-drop-index", func() Message { return new(ClientDropIndex) }},
	KindClientAck:          {"client-ack", func() Message { return new(ClientAck) }},
	KindClientQueryResp:    {"client-query-resp", func() Message { return new(ClientQueryResp) }},
	KindClientVersions:     {"client-versions", func() Message { return new(ClientVersions) }},
	KindClientVersionsResp: {"client-versions-resp", func() Message { return new(ClientVersionsResp) }},
	KindClientAgg:          {"client-agg", func() Message { return new(ClientAgg) }},
	KindClientAggResp:      {"client-agg-resp", func() Message { return new(ClientAggResp) }},

	KindTriggerInstall: {"trigger-install", func() Message { return new(TriggerInstall) }},
	KindTriggerFire:    {"trigger-fire", func() Message { return new(TriggerFire) }},
	KindTriggerRemove:  {"trigger-remove", func() Message { return new(TriggerRemove) }},
	KindRetireVersion:  {"retire-version", func() Message { return new(RetireVersion) }},
	KindRegionRecall:   {"region-recall", func() Message { return new(RegionRecall) }},

	KindBatch:        {"batch", func() Message { return new(Batch) }},
	KindFlowFrame:    {name: "flow-frame"},
	KindStreamStatus: {"stream-status", func() Message { return new(StreamStatus) }},
}

func (k Kind) String() string {
	if name := kinds[k].name; name != "" {
		return name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Message is the contract every protocol message implements. fields
// names the message's fields once, in wire order, to a codec that
// writes them when encoding and reads them when decoding.
type Message interface {
	Kind() Kind
	fields(c *codec)
}

// Encode frames a message as kind byte + payload. The returned buffer
// is exactly sized and owned by the caller; passing it to RecycleBuf
// once the bytes have been consumed lets subsequent Encodes reuse it.
func Encode(m Message) []byte {
	c := encoderPool.Get().(*codec)
	c.off = 0
	k := uint8(m.Kind())
	c.U8(&k)
	m.fields(c)
	out := append(getBuf(c.off), c.buf[:c.off]...)
	if len(c.buf) <= maxPooledBuf {
		encoderPool.Put(c)
	}
	return out
}

// Decode parses a framed message.
func Decode(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("wire: empty message")
	}
	k := Kind(data[0])
	if kinds[k].new == nil {
		return nil, fmt.Errorf("wire: unknown message kind %d", data[0])
	}
	m := kinds[k].new()
	c := codec{buf: data, off: 1, dec: true}
	m.fields(&c)
	if c.err == nil && c.remaining() != 0 {
		c.fail("%d trailing bytes", c.remaining())
	}
	if c.err != nil {
		return nil, fmt.Errorf("wire: decoding %s: %w", k, c.err)
	}
	return m, nil
}

// NodeInfo identifies a node by transport address and overlay code.
type NodeInfo struct {
	Addr string
	Code bitstr.Code
}

// VersionDef carries one index version's cut tree and its install
// epoch, so a joiner adopts not just the tree but its identity in the
// install total order (a retired-marker epoch propagates retirement).
type VersionDef struct {
	Version uint32
	Tree    []byte // embed.Tree.Marshal output
	Epoch   uint64
}

// IndexDef carries a full index definition: schema plus the cut tree of
// every version; sent to joining nodes and on create-index.
type IndexDef struct {
	Schema   *schema.Schema
	Versions []VersionDef
}

// --- Join protocol -----------------------------------------------------

// JoinLookup asks the owner of a random code for its neighborhood; it is
// greedy-routed like data. Joining nodes use it to sample the overlay
// (§3.3).
type JoinLookup struct {
	ReqID      uint64
	JoinerAddr string
	Target     bitstr.Code // random code being routed towards
	Hops       uint8
}

func (m *JoinLookup) Kind() Kind { return KindJoinLookup }
func (m *JoinLookup) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.String(&m.JoinerAddr)
	c.Code(&m.Target)
	c.U8(&m.Hops)
}

// JoinLookupResp returns the sampled node and its neighborhood.
type JoinLookupResp struct {
	ReqID     uint64
	Self      NodeInfo
	Neighbors []NodeInfo
}

func (m *JoinLookupResp) Kind() Kind { return KindJoinLookupResp }
func (m *JoinLookupResp) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.Node(&m.Self)
	c.Nodes(&m.Neighbors)
}

// JoinRequest asks the target node to split its code and adopt the
// joiner as its new sibling.
type JoinRequest struct {
	ReqID      uint64
	JoinerAddr string
}

func (m *JoinRequest) Kind() Kind { return KindJoinRequest }
func (m *JoinRequest) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.String(&m.JoinerAddr)
}

// JoinPrepare is the optimistic-accept first phase: the splitting target
// asks each neighbor to approve. A neighbor holding an uncommitted
// prepare from a deeper target preempts it in favor of a shallower one
// (Fig 4).
type JoinPrepare struct {
	Target NodeInfo // the node that intends to split (current code)
}

func (m *JoinPrepare) Kind() Kind      { return KindJoinPrepare }
func (m *JoinPrepare) fields(c *codec) { c.Node(&m.Target) }

// JoinPrepareResp approves or rejects a prepare. A rejection may also be
// sent later to revoke a previously granted approval when a shallower
// join preempts it.
type JoinPrepareResp struct {
	From       NodeInfo
	TargetCode bitstr.Code // echo of the prepare's code
	Approve    bool
}

func (m *JoinPrepareResp) Kind() Kind { return KindJoinPrepareResp }
func (m *JoinPrepareResp) fields(c *codec) {
	c.Node(&m.From)
	c.Code(&m.TargetCode)
	c.Bool(&m.Approve)
}

// JoinAbort clears a pending prepare at the neighbors after the target
// gave up on a split.
type JoinAbort struct {
	Target NodeInfo
}

func (m *JoinAbort) Kind() Kind      { return KindJoinAbort }
func (m *JoinAbort) fields(c *codec) { c.Node(&m.Target) }

// JoinAccept completes a join from the target's side: the joiner learns
// its code, its new sibling, its initial neighbor table and all index
// definitions. Epoch is the target's region epoch after the split; the
// joiner adopts it so a freshly joined node is fenced at least as high
// as its region's membership history.
type JoinAccept struct {
	ReqID     uint64
	NewCode   bitstr.Code
	Sibling   NodeInfo // target with its deepened code
	Neighbors []NodeInfo
	Indices   []IndexDef
	Epoch     uint64
}

func (m *JoinAccept) Kind() Kind { return KindJoinAccept }
func (m *JoinAccept) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.Code(&m.NewCode)
	c.Node(&m.Sibling)
	c.Nodes(&m.Neighbors)
	c.Uvarint(&m.Epoch)
	slice(c, &m.Indices, 1<<12, (*codec).IndexDef)
}

// JoinReject tells the joiner to retry (target busy or preempted).
type JoinReject struct {
	ReqID  uint64
	Reason string
}

func (m *JoinReject) Kind() Kind { return KindJoinReject }
func (m *JoinReject) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.String(&m.Reason)
}

// JoinCommit tells the split target's neighbors about the committed
// split: the target's deepened code and the newly joined sibling.
type JoinCommit struct {
	OldCode bitstr.Code // target's pre-split code
	Target  NodeInfo    // target with new (deepened) code
	Joiner  NodeInfo
}

func (m *JoinCommit) Kind() Kind { return KindJoinCommit }
func (m *JoinCommit) fields(c *codec) {
	c.Code(&m.OldCode)
	c.Node(&m.Target)
	c.Node(&m.Joiner)
}

// --- Overlay maintenance -----------------------------------------------

// Heartbeat is the one liveness message, sent to each contact at most
// once per interval, on the tick or as an answer. It carries the sender's
// current code so stale neighbor entries self-correct. VerDigest digests
// the sender's installed cut-tree epochs; a mismatch triggers the
// tree-summary exchange that lets nodes which missed a HistInstall flood
// (e.g. across a partition) catch up without waiting for data traffic.
type Heartbeat struct {
	From      NodeInfo
	VerDigest uint64
}

func (m *Heartbeat) Kind() Kind { return KindHeartbeat }
func (m *Heartbeat) fields(c *codec) {
	c.Node(&m.From)
	c.U64(&m.VerDigest)
}

// Takeover announces that the sender shortened its code to absorb a
// failed sibling's region (§3.8). Epoch is the sender's region epoch
// after the takeover bump: a receiver whose own code conflicts with the
// announced one treats the message as an ownership dispute and resolves
// it by epoch instead of silently learning a conflicting contact.
type Takeover struct {
	From    NodeInfo    // sender with its new, shortened code
	OldCode bitstr.Code // sender's previous code
	Dead    bitstr.Code // the failed sibling's code
	Epoch   uint64
	// DeadAddr is the failed node's address when the sender declared the
	// death from first-hand failure detection; empty when the takeover
	// absorbed a region known only by code (repair-corroborated sibling
	// death, relocation-vacated regions). Receivers use it to drop
	// per-address state — notably §3.4 history pointers — for a peer
	// they may have long since evicted from their own contact tables.
	DeadAddr string
}

func (m *Takeover) Kind() Kind { return KindTakeover }
func (m *Takeover) fields(c *codec) {
	c.Node(&m.From)
	c.Code(&m.OldCode)
	c.Code(&m.Dead)
	c.Uvarint(&m.Epoch)
	c.String(&m.DeadAddr)
}

// LivenessProbe is overlay-routed toward a suspect peer's code to ask
// its neighborhood whether the peer is alive (§3.8: reconnect vs repair).
type LivenessProbe struct {
	ReqID   uint64
	Asker   NodeInfo
	Suspect NodeInfo
	Hops    uint8
}

func (m *LivenessProbe) Kind() Kind { return KindLivenessProbe }
func (m *LivenessProbe) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.Node(&m.Asker)
	c.Node(&m.Suspect)
	c.U8(&m.Hops)
}

// LivenessReply attests to the suspect's liveness.
type LivenessReply struct {
	ReqID uint64
	Alive bool
}

func (m *LivenessReply) Kind() Kind { return KindLivenessReply }
func (m *LivenessReply) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.Bool(&m.Alive)
}

// --- Data path ----------------------------------------------------------

// InsertRun greedy-routes records of one index version toward the codes
// their indexed points hash to (§3.5): one header, then a row per record
// in one group list (Groups) — the record's ReqID, its target (Code.Pack's
// left-aligned bits, then its length), its hop count and then its values
// (InsertRow); a single record is a run of one. The ReqID is the
// originator's ack key and the owner's dedup key. Attempt is 0 for the
// first transmission and counts up on each originator retransmission, to
// at most MaxAttempt; every attempt carries the same ReqID and owners
// dedup on it, so any attempt is safe to store. Repeat marks records
// that may already be stored at their owner under another ReqID —
// retransmissions and repair re-inserts — so the owner first looks for a
// stored copy with the same values. It travels in the high bit of the
// attempt byte, so a run without it encodes as it did before the bit
// existed. TreeEpoch identifies the cut tree the originator used to
// compute the targets for Version (version-skew detection, §3.7 under
// faults). DESIGN.md §6 "The group rule".
type InsertRun struct {
	OriginAddr string
	Index      string
	Version    uint32
	TreeEpoch  uint64
	Attempt    uint8
	Repeat     bool
	Rows       Groups
}

// The columns of an insert run's row before its record's values.
const (
	rowReqID = iota
	rowTarget
	rowTargetLen
	rowHops
	InsertCols // the record's values start at this column
)

// insertRows is the rule every insert run's row keeps: its four columns
// and a target length and hop count that fit.
var insertRows = rowRule{arity: InsertCols, max: []uint64{
	rowReqID: math.MaxUint64, rowTarget: math.MaxUint64, rowTargetLen: bitstr.MaxLen, rowHops: math.MaxUint8,
}}

func (m *InsertRun) Kind() Kind { return KindInsert }
func (m *InsertRun) fields(c *codec) {
	c.String(&m.OriginAddr)
	c.String(&m.Index)
	c.U32(&m.Version)
	c.Uvarint(&m.TreeEpoch)
	attempt := min(m.Attempt, MaxAttempt)
	if m.Repeat {
		attempt |= repeatBit
	}
	c.U8(&attempt)
	if c.dec {
		m.Attempt, m.Repeat = attempt&MaxAttempt, attempt&repeatBit != 0
	}
	c.run(&m.Rows, insertRows)
}

// MaxAttempt is the largest attempt an insert run carries: its byte's
// high bit is the repeat bit.
const (
	MaxAttempt = 0x7f
	repeatBit  = 0x80
)

// Append adds one record under the run's header: its row joins Rows'
// open group, which copies it.
func (m *InsertRun) Append(reqID uint64, target bitstr.Code, hops uint8, rec []uint64) {
	var buf [stackCols]uint64
	bits, n := target.Pack()
	m.Rows.AppendRow(append(append(buf[:0], reqID, bits, uint64(n), uint64(hops)), rec...))
}

// InsertRow splits an insert run's row into its record's ReqID, target,
// hop count and values; the values are the row's tail, not a copy.
// Stray target bits past its length are zeroed (bitstr.Unpack).
func InsertRow(row []uint64) (reqID uint64, target bitstr.Code, hops uint8, rec schema.Record) {
	return row[rowReqID], bitstr.Unpack(row[rowTarget], uint8(row[rowTargetLen])), uint8(row[rowHops]), row[InsertCols:]
}

// InsertAcks confirms storage directly to the originator: a row per
// stored record, in one group list — its ReqID and the hop count it
// travelled (AckRow).
type InsertAcks struct {
	StoredAt NodeInfo
	Rows     Groups
}

// ackRows is the rule every ack run's row keeps: a ReqID and a hop
// count that fits.
var ackRows = rowRule{arity: 2, exact: true, max: []uint64{math.MaxUint64, math.MaxUint8}}

func (m *InsertAcks) Kind() Kind { return KindInsertAck }
func (m *InsertAcks) fields(c *codec) {
	c.Node(&m.StoredAt)
	c.run(&m.Rows, ackRows)
}

// Append acks one record.
func (m *InsertAcks) Append(reqID uint64, hops uint8) {
	row := [2]uint64{reqID, uint64(hops)}
	m.Rows.AppendRow(row[:])
}

// AckRow splits an ack run's row into its ReqID and hop count.
func AckRow(row []uint64) (reqID uint64, hops uint8) { return row[0], uint8(row[1]) }

// ReplicateRun copies records an owner newly stored to a replica-set
// neighbor (§3.8): one header and the records as one group list. It
// carries no ids: an owner sends each stored record once, and a transport
// never delivers a frame twice, so the replica store keeps every record.
type ReplicateRun struct {
	Index     string
	Version   uint32
	OwnerCode bitstr.Code
	Recs      Groups
}

func (m *ReplicateRun) Kind() Kind { return KindReplicate }
func (m *ReplicateRun) fields(c *codec) {
	c.String(&m.Index)
	c.U32(&m.Version)
	c.Code(&m.OwnerCode)
	c.run(&m.Recs, rowRule{})
}

// Query is a multi-dimensional range query greedy-routed toward the code
// prefix of the smallest region containing it (§3.6).
type Query struct {
	ReqID      uint64
	OriginAddr string
	Index      string
	Versions   []uint64 // version ids the query's time interval spans
	Rect       schema.Rect
	Target     bitstr.Code
	Hops       uint8
	// TreeEpoch identifies the cut tree the originator used for this
	// version group (all Versions in one Query share a tree).
	TreeEpoch uint64
}

func (m *Query) Kind() Kind { return KindQuery }
func (m *Query) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.String(&m.OriginAddr)
	c.String(&m.Index)
	c.U64s(&m.Versions)
	c.Rect(&m.Rect)
	c.Code(&m.Target)
	c.U8(&m.Hops)
	c.Uvarint(&m.TreeEpoch)
}

// SubQuery is one decomposed piece of a query, routed to the region code
// it covers. RegionCode is the coverage unit the originator uses to
// detect completion. Historic marks a sub-query forwarded along a
// history pointer (§3.4): data stored before a split stays at the split
// target, and the joiner forwards queries for it; a historic sub-query
// is answered directly from local storage, skipping ownership checks.
type SubQuery struct {
	ReqID      uint64
	OriginAddr string
	Index      string
	Versions   []uint64
	Rect       schema.Rect
	RegionCode bitstr.Code
	Hops       uint8
	Historic   bool
	// Attempt is 0 on the first dispatch and counts up when the
	// originator re-issues the sub-query for a region still missing from
	// its coverage trie; answers are idempotent at the originator.
	Attempt uint8
	// TreeEpoch identifies the cut tree the originator decomposed with;
	// a receiver only re-splits the region against the same tree.
	TreeEpoch uint64
}

func (m *SubQuery) Kind() Kind { return KindSubQuery }
func (m *SubQuery) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.String(&m.OriginAddr)
	c.String(&m.Index)
	c.U64s(&m.Versions)
	c.Rect(&m.Rect)
	c.Code(&m.RegionCode)
	c.U8(&m.Hops)
	c.Bool(&m.Historic)
	c.U8(&m.Attempt)
	c.Uvarint(&m.TreeEpoch)
}

// QueryResp carries matching records straight back to the originator.
// Cover is the region code this response accounts for: the originator
// assembles Cover codes until they tile the whole query region, which
// also makes negative (empty) responses meaningful (§3.6). A response
// with HasCover false contributes records without claiming coverage
// (used by a node whose history pointer delegates coverage of its region
// to its split sibling).
type QueryResp struct {
	ReqID    uint64
	From     NodeInfo
	HasCover bool
	Cover    bitstr.Code
	Versions []uint64 // versions this response pertains to (echo of the sub-query)
	// Recs are the matching records, kept in their wire form, groups,
	// from the responder's store to the client's socket. No id travels
	// with them: an originator that must dedup derives each record's id
	// from its values.
	Recs Groups
	Hops uint8 // overlay hops the sub-query travelled
}

func (m *QueryResp) Kind() Kind { return KindQueryResp }
func (m *QueryResp) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.Node(&m.From)
	c.Bool(&m.HasCover)
	c.Code(&m.Cover)
	c.U64s(&m.Versions)
	c.Groups(&m.Recs)
	c.U8(&m.Hops)
}

// --- Control path -------------------------------------------------------

// CreateIndex floods an index definition across the overlay (§3.4).
type CreateIndex struct {
	OpID uint64
	Def  IndexDef
}

func (m *CreateIndex) Kind() Kind { return KindCreateIndex }
func (m *CreateIndex) fields(c *codec) {
	c.Uvarint(&m.OpID)
	c.IndexDef(&m.Def)
}

// DropIndex floods an index removal.
type DropIndex struct {
	OpID uint64
	Tag  string
}

func (m *DropIndex) Kind() Kind { return KindDropIndex }
func (m *DropIndex) fields(c *codec) {
	c.Uvarint(&m.OpID)
	c.String(&m.Tag)
}

// HistReport routes a node's local data-distribution histogram toward
// the designated aggregation node (the all-zero code owner) (§3.7).
// ReqID tracks the report end-to-end: the aggregator answers with
// HistReportAck and the reporter retransmits until acked, so a report
// lost in flight — or merged by a coordinator that then died — is
// re-delivered to whoever owns the aggregation point by then.
type HistReport struct {
	Index    string
	Day      uint32
	NodeAddr string
	Hist     []byte // histogram.Hist.Marshal output
	Hops     uint8
	ReqID    uint64
}

func (m *HistReport) Kind() Kind { return KindHistReport }
func (m *HistReport) fields(c *codec) {
	c.String(&m.Index)
	c.U32(&m.Day)
	c.String(&m.NodeAddr)
	c.Bytes(&m.Hist)
	c.U8(&m.Hops)
	c.Uvarint(&m.ReqID)
}

// HistReportAck confirms that the designated aggregator merged (or
// deduplicated) one histogram report.
type HistReportAck struct {
	ReqID uint64
}

func (m *HistReportAck) Kind() Kind { return KindHistReportAck }
func (m *HistReportAck) fields(c *codec) {
	c.Uvarint(&m.ReqID)
}

// HistInstall floods the next index version's balanced cut tree. Epoch
// totally orders installs for one (index, version): a higher counter in
// the top bits wins, with a content signature in the low bits breaking
// ties between concurrent installs (e.g. both sides of a partition ran
// the reversion), so every node converges on the same tree.
type HistInstall struct {
	OpID    uint64
	Index   string
	Version uint32
	Tree    []byte // embed.Tree.Marshal output
	Epoch   uint64
}

func (m *HistInstall) Kind() Kind { return KindHistInstall }
func (m *HistInstall) fields(c *codec) {
	c.Uvarint(&m.OpID)
	c.String(&m.Index)
	c.U32(&m.Version)
	c.Bytes(&m.Tree)
	c.Uvarint(&m.Epoch)
}

// TreePull asks a peer (unicast) for one version's installed cut tree —
// the pull half of version-skew catch-up: a node that receives a data
// message stamped with a newer TreeEpoch than it has installed drops the
// message and pulls the tree from the originator; the originator's
// retransmission then finds the receiver caught up.
type TreePull struct {
	From    string // requester's address (reply target)
	Index   string
	Version uint32
}

func (m *TreePull) Kind() Kind { return KindTreePull }
func (m *TreePull) fields(c *codec) {
	c.String(&m.From)
	c.String(&m.Index)
	c.U32(&m.Version)
}

// TreePush delivers one version's cut tree (answer to TreePull, or an
// eager push to an originator observed using an older tree). A push
// with a retired-marker epoch carries no tree and propagates the
// retirement instead.
type TreePush struct {
	Index   string
	Version uint32
	Epoch   uint64
	Tree    []byte
}

func (m *TreePush) Kind() Kind { return KindTreePush }
func (m *TreePush) fields(c *codec) {
	c.String(&m.Index)
	c.U32(&m.Version)
	c.Uvarint(&m.Epoch)
	c.Bytes(&m.Tree)
}

// TreeSyncReq asks a peer for its installed-tree summary after a
// heartbeat digest mismatch.
type TreeSyncReq struct {
	From string
}

func (m *TreeSyncReq) Kind() Kind { return KindTreeSyncReq }
func (m *TreeSyncReq) fields(c *codec) {
	c.String(&m.From)
}

// TreeSyncEntry is one (index, version) tree identity.
type TreeSyncEntry struct {
	Index   string
	Version uint32
	Epoch   uint64
}

// TreeSyncResp lists the sender's installed (and retired-marker) tree
// epochs; the receiver pulls any version where the sender is ahead.
type TreeSyncResp struct {
	From    string
	Entries []TreeSyncEntry
}

func (m *TreeSyncResp) Kind() Kind { return KindTreeSyncResp }
func (m *TreeSyncResp) fields(c *codec) {
	c.String(&m.From)
	c.Entries(&m.Entries)
}

// --- Membership reconciliation ------------------------------------------

// CollisionProbe challenges a peer whose code conflicts with the
// sender's (equal, or one a prefix of the other) — the situation a
// partition that outlives FailAfter leaves behind, where both sides took
// over each other's regions. The receiver resolves the dispute
// deterministically: higher epoch wins, lower address breaks ties; the
// loser steps down and rejoins through the winner.
type CollisionProbe struct {
	From  NodeInfo
	Epoch uint64
}

func (m *CollisionProbe) Kind() Kind { return KindCollisionProbe }
func (m *CollisionProbe) fields(c *codec) {
	c.Node(&m.From)
	c.Uvarint(&m.Epoch)
}

// CollisionReply answers a collision probe the sender won, telling the
// probing loser to step down.
type CollisionReply struct {
	From  NodeInfo
	Epoch uint64
}

func (m *CollisionReply) Kind() Kind { return KindCollisionReply }
func (m *CollisionReply) fields(c *codec) {
	c.Node(&m.From)
	c.Uvarint(&m.Epoch)
}

// CollisionHint is third-party dispute detection: a node that observes
// two peers claiming conflicting codes tells each about the other. The
// two claimants may never exchange heartbeats themselves — equal-code
// nodes are never each other's contacts — so without a bystander's
// hint the dispute can persist indefinitely. The receiver verifies the
// conflict against its own code and, if real, opens the normal
// CollisionProbe exchange with the named peer.
type CollisionHint struct {
	Peer NodeInfo
}

func (m *CollisionHint) Kind() Kind { return KindCollisionHint }
func (m *CollisionHint) fields(c *codec) {
	c.Node(&m.Peer)
}
