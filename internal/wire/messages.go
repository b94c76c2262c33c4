package wire

import (
	"fmt"

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
	KindHeartbeatAck
	KindTakeover
	KindRingProbe
	KindLivenessProbe
	KindLivenessReply
	KindRingResumed

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

	kindSentinel
)

var kindNames = [...]string{
	KindInvalid:         "invalid",
	KindJoinLookup:      "join-lookup",
	KindJoinLookupResp:  "join-lookup-resp",
	KindJoinRequest:     "join-request",
	KindJoinPrepare:     "join-prepare",
	KindJoinPrepareResp: "join-prepare-resp",
	KindJoinAbort:       "join-abort",
	KindJoinAccept:      "join-accept",
	KindJoinReject:      "join-reject",
	KindJoinCommit:      "join-commit",
	KindHeartbeat:       "heartbeat",
	KindHeartbeatAck:    "heartbeat-ack",
	KindTakeover:        "takeover",
	KindRingProbe:       "ring-probe",
	KindLivenessProbe:   "liveness-probe",
	KindLivenessReply:   "liveness-reply",
	KindRingResumed:     "ring-resumed",
	KindInsert:          "insert",
	KindInsertAck:       "insert-ack",
	KindReplicate:       "replicate",
	KindQuery:           "query",
	KindSubQuery:        "sub-query",
	KindQueryResp:       "query-resp",
	KindCreateIndex:     "create-index",
	KindDropIndex:       "drop-index",
	KindHistReport:      "hist-report",
	KindHistInstall:     "hist-install",
	KindHistReportAck:   "hist-report-ack",
	KindTreePull:        "tree-pull",
	KindTreePush:        "tree-push",
	KindTreeSyncReq:     "tree-sync-req",
	KindTreeSyncResp:    "tree-sync-resp",
	KindCollisionProbe:  "collision-probe",
	KindCollisionReply:  "collision-reply",
	KindCollisionHint:   "collision-hint",
	KindAggQuery:        "agg-query",
	KindAggResp:         "agg-resp",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	if s, ok := clientKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Message is the contract every protocol message implements.
type Message interface {
	Kind() Kind
	encode(w *Writer)
	decode(r *Reader)
}

// Encode frames a message as kind byte + payload. The returned buffer
// is exactly sized and owned by the caller; passing it to RecycleBuf
// once the bytes have been consumed lets subsequent Encodes reuse it.
func Encode(m Message) []byte {
	w := getWriter()
	w.U8(uint8(m.Kind()))
	m.encode(w)
	out := append(getBuf(len(w.buf)), w.buf...)
	putWriter(w)
	return out
}

// Decode parses a framed message.
func Decode(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("wire: empty message")
	}
	k := Kind(data[0])
	m := newMessage(k)
	if m == nil {
		m = newClientMessage(k)
	}
	if m == nil {
		m = newTriggerMessage(k)
	}
	if m == nil {
		m = newBatchMessage(k)
	}
	if m == nil {
		m = newStreamMessage(k)
	}
	if m == nil {
		return nil, fmt.Errorf("wire: unknown message kind %d", data[0])
	}
	r := NewReader(data[1:])
	m.decode(r)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("wire: decoding %s: %w", k, err)
	}
	return m, nil
}

func newMessage(k Kind) Message {
	switch k {
	case KindJoinLookup:
		return &JoinLookup{}
	case KindJoinLookupResp:
		return &JoinLookupResp{}
	case KindJoinRequest:
		return &JoinRequest{}
	case KindJoinPrepare:
		return &JoinPrepare{}
	case KindJoinPrepareResp:
		return &JoinPrepareResp{}
	case KindJoinAbort:
		return &JoinAbort{}
	case KindJoinAccept:
		return &JoinAccept{}
	case KindJoinReject:
		return &JoinReject{}
	case KindJoinCommit:
		return &JoinCommit{}
	case KindHeartbeat:
		return &Heartbeat{}
	case KindHeartbeatAck:
		return &HeartbeatAck{}
	case KindTakeover:
		return &Takeover{}
	case KindRingProbe:
		return &RingProbe{}
	case KindLivenessProbe:
		return &LivenessProbe{}
	case KindLivenessReply:
		return &LivenessReply{}
	case KindRingResumed:
		return &RingResumed{}
	case KindInsert:
		return &Insert{}
	case KindInsertAck:
		return &InsertAck{}
	case KindReplicate:
		return &Replicate{}
	case KindQuery:
		return &Query{}
	case KindSubQuery:
		return &SubQuery{}
	case KindQueryResp:
		return &QueryResp{}
	case KindCreateIndex:
		return &CreateIndex{}
	case KindDropIndex:
		return &DropIndex{}
	case KindHistReport:
		return &HistReport{}
	case KindHistInstall:
		return &HistInstall{}
	case KindHistReportAck:
		return &HistReportAck{}
	case KindTreePull:
		return &TreePull{}
	case KindTreePush:
		return &TreePush{}
	case KindTreeSyncReq:
		return &TreeSyncReq{}
	case KindTreeSyncResp:
		return &TreeSyncResp{}
	case KindCollisionProbe:
		return &CollisionProbe{}
	case KindCollisionReply:
		return &CollisionReply{}
	case KindCollisionHint:
		return &CollisionHint{}
	case KindAggQuery:
		return &AggQuery{}
	case KindAggResp:
		return &AggResp{}
	}
	return nil
}

// NodeInfo identifies a node by transport address and overlay code.
type NodeInfo struct {
	Addr string
	Code bitstr.Code
}

func (n NodeInfo) encode(w *Writer) {
	w.String(n.Addr)
	w.Code(n.Code)
}

func (n *NodeInfo) decode(r *Reader) {
	n.Addr = r.String()
	n.Code = r.Code()
}

func encodeNodeInfos(w *Writer, ns []NodeInfo) {
	w.Uvarint(uint64(len(ns)))
	for _, n := range ns {
		n.encode(w)
	}
}

func decodeNodeInfos(r *Reader) []NodeInfo {
	n := r.Uvarint()
	if n > 1<<16 {
		r.fail("too many node infos: %d", n)
		return nil
	}
	out := make([]NodeInfo, n)
	for i := range out {
		out[i].decode(r)
	}
	return out
}

// encodeRect / decodeRect serialize a query rectangle.
func encodeRect(w *Writer, rc schema.Rect) {
	w.U64Slice(rc.Lo)
	w.U64Slice(rc.Hi)
}

func decodeRect(r *Reader) schema.Rect {
	return schema.Rect{Lo: r.U64Slice(), Hi: r.U64Slice()}
}

// EncodeSchema serializes an index schema.
func EncodeSchema(w *Writer, s *schema.Schema) {
	w.String(s.Tag)
	w.Uvarint(uint64(s.IndexDims))
	w.Uvarint(uint64(len(s.Attrs)))
	for _, a := range s.Attrs {
		w.String(a.Name)
		w.U8(uint8(a.Kind))
		w.U64(a.Max)
	}
}

// DecodeSchema deserializes an index schema.
func DecodeSchema(r *Reader) *schema.Schema {
	s := &schema.Schema{Tag: r.String(), IndexDims: int(r.Uvarint())}
	n := r.Uvarint()
	if n > 256 {
		r.fail("too many attributes: %d", n)
		return s
	}
	s.Attrs = make([]schema.Attr, n)
	for i := range s.Attrs {
		s.Attrs[i].Name = r.String()
		s.Attrs[i].Kind = schema.Kind(r.U8())
		s.Attrs[i].Max = r.U64()
	}
	return s
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

func (d IndexDef) encode(w *Writer) {
	EncodeSchema(w, d.Schema)
	w.Uvarint(uint64(len(d.Versions)))
	for _, v := range d.Versions {
		w.Uvarint(uint64(v.Version))
		w.BytesField(v.Tree)
		w.Uvarint(v.Epoch)
	}
}

func (d *IndexDef) decode(r *Reader) {
	d.Schema = DecodeSchema(r)
	n := r.Uvarint()
	if n > 1<<16 {
		r.fail("too many versions: %d", n)
		return
	}
	d.Versions = make([]VersionDef, n)
	for i := range d.Versions {
		d.Versions[i].Version = uint32(r.Uvarint())
		d.Versions[i].Tree = r.BytesField()
		d.Versions[i].Epoch = r.Uvarint()
	}
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
func (m *JoinLookup) encode(w *Writer) {
	w.Uvarint(m.ReqID)
	w.String(m.JoinerAddr)
	w.Code(m.Target)
	w.U8(m.Hops)
}
func (m *JoinLookup) decode(r *Reader) {
	m.ReqID = r.Uvarint()
	m.JoinerAddr = r.String()
	m.Target = r.Code()
	m.Hops = r.U8()
}

// JoinLookupResp returns the sampled node and its neighborhood.
type JoinLookupResp struct {
	ReqID     uint64
	Self      NodeInfo
	Neighbors []NodeInfo
}

func (m *JoinLookupResp) Kind() Kind { return KindJoinLookupResp }
func (m *JoinLookupResp) encode(w *Writer) {
	w.Uvarint(m.ReqID)
	m.Self.encode(w)
	encodeNodeInfos(w, m.Neighbors)
}
func (m *JoinLookupResp) decode(r *Reader) {
	m.ReqID = r.Uvarint()
	m.Self.decode(r)
	m.Neighbors = decodeNodeInfos(r)
}

// JoinRequest asks the target node to split its code and adopt the
// joiner as its new sibling.
type JoinRequest struct {
	ReqID      uint64
	JoinerAddr string
}

func (m *JoinRequest) Kind() Kind { return KindJoinRequest }
func (m *JoinRequest) encode(w *Writer) {
	w.Uvarint(m.ReqID)
	w.String(m.JoinerAddr)
}
func (m *JoinRequest) decode(r *Reader) {
	m.ReqID = r.Uvarint()
	m.JoinerAddr = r.String()
}

// JoinPrepare is the optimistic-accept first phase: the splitting target
// asks each neighbor to approve. A neighbor holding an uncommitted
// prepare from a deeper target preempts it in favor of a shallower one
// (Fig 4).
type JoinPrepare struct {
	Target NodeInfo // the node that intends to split (current code)
}

func (m *JoinPrepare) Kind() Kind       { return KindJoinPrepare }
func (m *JoinPrepare) encode(w *Writer) { m.Target.encode(w) }
func (m *JoinPrepare) decode(r *Reader) { m.Target.decode(r) }

// JoinPrepareResp approves or rejects a prepare. A rejection may also be
// sent later to revoke a previously granted approval when a shallower
// join preempts it.
type JoinPrepareResp struct {
	From       NodeInfo
	TargetCode bitstr.Code // echo of the prepare's code
	Approve    bool
}

func (m *JoinPrepareResp) Kind() Kind { return KindJoinPrepareResp }
func (m *JoinPrepareResp) encode(w *Writer) {
	m.From.encode(w)
	w.Code(m.TargetCode)
	w.Bool(m.Approve)
}
func (m *JoinPrepareResp) decode(r *Reader) {
	m.From.decode(r)
	m.TargetCode = r.Code()
	m.Approve = r.Bool()
}

// JoinAbort clears a pending prepare at the neighbors after the target
// gave up on a split.
type JoinAbort struct {
	Target NodeInfo
}

func (m *JoinAbort) Kind() Kind       { return KindJoinAbort }
func (m *JoinAbort) encode(w *Writer) { m.Target.encode(w) }
func (m *JoinAbort) decode(r *Reader) { m.Target.decode(r) }

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
func (m *JoinAccept) encode(w *Writer) {
	w.Uvarint(m.ReqID)
	w.Code(m.NewCode)
	m.Sibling.encode(w)
	encodeNodeInfos(w, m.Neighbors)
	w.Uvarint(m.Epoch)
	w.Uvarint(uint64(len(m.Indices)))
	for _, d := range m.Indices {
		d.encode(w)
	}
}
func (m *JoinAccept) decode(r *Reader) {
	m.ReqID = r.Uvarint()
	m.NewCode = r.Code()
	m.Sibling.decode(r)
	m.Neighbors = decodeNodeInfos(r)
	m.Epoch = r.Uvarint()
	n := r.Uvarint()
	if n > 1<<12 {
		r.fail("too many indices: %d", n)
		return
	}
	m.Indices = make([]IndexDef, n)
	for i := range m.Indices {
		m.Indices[i].decode(r)
	}
}

// JoinReject tells the joiner to retry (target busy or preempted).
type JoinReject struct {
	ReqID  uint64
	Reason string
}

func (m *JoinReject) Kind() Kind { return KindJoinReject }
func (m *JoinReject) encode(w *Writer) {
	w.Uvarint(m.ReqID)
	w.String(m.Reason)
}
func (m *JoinReject) decode(r *Reader) {
	m.ReqID = r.Uvarint()
	m.Reason = r.String()
}

// JoinCommit tells the split target's neighbors about the committed
// split: the target's deepened code and the newly joined sibling.
type JoinCommit struct {
	OldCode bitstr.Code // target's pre-split code
	Target  NodeInfo    // target with new (deepened) code
	Joiner  NodeInfo
}

func (m *JoinCommit) Kind() Kind { return KindJoinCommit }
func (m *JoinCommit) encode(w *Writer) {
	w.Code(m.OldCode)
	m.Target.encode(w)
	m.Joiner.encode(w)
}
func (m *JoinCommit) decode(r *Reader) {
	m.OldCode = r.Code()
	m.Target.decode(r)
	m.Joiner.decode(r)
}

// --- Overlay maintenance -----------------------------------------------

// Heartbeat probes a neighbor's liveness and carries the sender's
// current code so stale neighbor entries self-correct. VerDigest is an
// order-independent digest of the sender's installed cut-tree epochs;
// a mismatch triggers the tree-summary exchange that lets nodes which
// missed a HistInstall flood (e.g. across a partition) catch up without
// waiting for data traffic.
type Heartbeat struct {
	From      NodeInfo
	Seq       uint64
	VerDigest uint64
}

func (m *Heartbeat) Kind() Kind { return KindHeartbeat }
func (m *Heartbeat) encode(w *Writer) {
	m.From.encode(w)
	w.Uvarint(m.Seq)
	w.U64(m.VerDigest)
}
func (m *Heartbeat) decode(r *Reader) {
	m.From.decode(r)
	m.Seq = r.Uvarint()
	m.VerDigest = r.U64()
}

// HeartbeatAck answers a heartbeat.
type HeartbeatAck struct {
	From      NodeInfo
	Seq       uint64
	VerDigest uint64
}

func (m *HeartbeatAck) Kind() Kind { return KindHeartbeatAck }
func (m *HeartbeatAck) encode(w *Writer) {
	m.From.encode(w)
	w.Uvarint(m.Seq)
	w.U64(m.VerDigest)
}
func (m *HeartbeatAck) decode(r *Reader) {
	m.From.decode(r)
	m.Seq = r.Uvarint()
	m.VerDigest = r.U64()
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
func (m *Takeover) encode(w *Writer) {
	m.From.encode(w)
	w.Code(m.OldCode)
	w.Code(m.Dead)
	w.Uvarint(m.Epoch)
	w.String(m.DeadAddr)
}
func (m *Takeover) decode(r *Reader) {
	m.From.decode(r)
	m.OldCode = r.Code()
	m.Dead = r.Code()
	m.Epoch = r.Uvarint()
	m.DeadAddr = r.String()
}

// RingProbe is the expanding-ring scoped broadcast used when greedy
// routing dead-ends: it carries the stuck message so that a node with a
// strictly better prefix match can resume forwarding it (§3.8).
type RingProbe struct {
	ProbeID  uint64
	Origin   NodeInfo // node where greedy routing failed
	Target   bitstr.Code
	MatchLen uint8 // best prefix-match length at the origin
	TTL      uint8
	// Ring is the escalation round (index into the origin's TTL
	// schedule), constant across rebroadcasts of one round. Receivers
	// dedup per (ProbeID, Ring), so a wider round travels through nodes
	// an earlier round already touched — without it the ring could never
	// actually expand.
	Ring    uint8
	Payload []byte // the stuck, fully-encoded routed message
}

func (m *RingProbe) Kind() Kind { return KindRingProbe }
func (m *RingProbe) encode(w *Writer) {
	w.Uvarint(m.ProbeID)
	m.Origin.encode(w)
	w.Code(m.Target)
	w.U8(m.MatchLen)
	w.U8(m.TTL)
	w.U8(m.Ring)
	w.BytesField(m.Payload)
}
func (m *RingProbe) decode(r *Reader) {
	m.ProbeID = r.Uvarint()
	m.Origin.decode(r)
	m.Target = r.Code()
	m.MatchLen = r.U8()
	m.TTL = r.U8()
	m.Ring = r.U8()
	m.Payload = r.BytesField()
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
func (m *LivenessProbe) encode(w *Writer) {
	w.Uvarint(m.ReqID)
	m.Asker.encode(w)
	m.Suspect.encode(w)
	w.U8(m.Hops)
}
func (m *LivenessProbe) decode(r *Reader) {
	m.ReqID = r.Uvarint()
	m.Asker.decode(r)
	m.Suspect.decode(r)
	m.Hops = r.U8()
}

// LivenessReply attests to the suspect's liveness.
type LivenessReply struct {
	ReqID uint64
	Alive bool
}

func (m *LivenessReply) Kind() Kind { return KindLivenessReply }
func (m *LivenessReply) encode(w *Writer) {
	w.Uvarint(m.ReqID)
	w.Bool(m.Alive)
}
func (m *LivenessReply) decode(r *Reader) {
	m.ReqID = r.Uvarint()
	m.Alive = r.Bool()
}

// RingResumed tells a ring probe's origin that some node resumed the
// stuck payload, so the origin stops escalating to wider TTLs.
type RingResumed struct {
	ProbeID uint64
}

func (m *RingResumed) Kind() Kind { return KindRingResumed }
func (m *RingResumed) encode(w *Writer) {
	w.Uvarint(m.ProbeID)
}
func (m *RingResumed) decode(r *Reader) {
	m.ProbeID = r.Uvarint()
}

// --- Data path ----------------------------------------------------------

// Insert greedy-routes one record toward the code its indexed point
// hashes to (§3.5). Attempt is 0 for the first transmission and counts
// up on each originator retransmission of the same ReqID/RecID; owners
// dedup on RecID, so any attempt is safe to store.
type Insert struct {
	ReqID      uint64
	OriginAddr string
	Index      string
	Version    uint32
	RecID      uint64 // origin-unique record id, for replica dedup
	Rec        []uint64
	Target     bitstr.Code
	Hops       uint8
	Attempt    uint8
	// TreeEpoch identifies the cut tree the originator used to compute
	// Target for Version (version-skew detection, §3.7 under faults).
	TreeEpoch uint64
}

func (m *Insert) Kind() Kind { return KindInsert }
func (m *Insert) encode(w *Writer) {
	w.Uvarint(m.ReqID)
	w.String(m.OriginAddr)
	w.String(m.Index)
	w.Uvarint(uint64(m.Version))
	w.U64(m.RecID)
	w.U64Slice(m.Rec)
	w.Code(m.Target)
	w.U8(m.Hops)
	w.U8(m.Attempt)
	w.Uvarint(m.TreeEpoch)
}
func (m *Insert) decode(r *Reader) {
	m.ReqID = r.Uvarint()
	m.OriginAddr = r.String()
	m.Index = r.String()
	m.Version = uint32(r.Uvarint())
	m.RecID = r.U64()
	m.Rec = r.U64Slice()
	m.Target = r.Code()
	m.Hops = r.U8()
	m.Attempt = r.U8()
	m.TreeEpoch = r.Uvarint()
}

// InsertAck confirms storage directly to the originator.
type InsertAck struct {
	ReqID    uint64
	StoredAt NodeInfo
	Hops     uint8
}

func (m *InsertAck) Kind() Kind { return KindInsertAck }
func (m *InsertAck) encode(w *Writer) {
	w.Uvarint(m.ReqID)
	m.StoredAt.encode(w)
	w.U8(m.Hops)
}
func (m *InsertAck) decode(r *Reader) {
	m.ReqID = r.Uvarint()
	m.StoredAt.decode(r)
	m.Hops = r.U8()
}

// Replicate copies a stored record to a replica-set neighbor (§3.8).
type Replicate struct {
	Index     string
	Version   uint32
	RecID     uint64
	Rec       []uint64
	OwnerCode bitstr.Code
}

func (m *Replicate) Kind() Kind { return KindReplicate }
func (m *Replicate) encode(w *Writer) {
	w.String(m.Index)
	w.Uvarint(uint64(m.Version))
	w.U64(m.RecID)
	w.U64Slice(m.Rec)
	w.Code(m.OwnerCode)
}
func (m *Replicate) decode(r *Reader) {
	m.Index = r.String()
	m.Version = uint32(r.Uvarint())
	m.RecID = r.U64()
	m.Rec = r.U64Slice()
	m.OwnerCode = r.Code()
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
func (m *Query) encode(w *Writer) {
	w.Uvarint(m.ReqID)
	w.String(m.OriginAddr)
	w.String(m.Index)
	w.U64Slice(m.Versions)
	encodeRect(w, m.Rect)
	w.Code(m.Target)
	w.U8(m.Hops)
	w.Uvarint(m.TreeEpoch)
}
func (m *Query) decode(r *Reader) {
	m.ReqID = r.Uvarint()
	m.OriginAddr = r.String()
	m.Index = r.String()
	m.Versions = r.U64Slice()
	m.Rect = decodeRect(r)
	m.Target = r.Code()
	m.Hops = r.U8()
	m.TreeEpoch = r.Uvarint()
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
func (m *SubQuery) encode(w *Writer) {
	w.Uvarint(m.ReqID)
	w.String(m.OriginAddr)
	w.String(m.Index)
	w.U64Slice(m.Versions)
	encodeRect(w, m.Rect)
	w.Code(m.RegionCode)
	w.U8(m.Hops)
	w.Bool(m.Historic)
	w.U8(m.Attempt)
	w.Uvarint(m.TreeEpoch)
}
func (m *SubQuery) decode(r *Reader) {
	m.ReqID = r.Uvarint()
	m.OriginAddr = r.String()
	m.Index = r.String()
	m.Versions = r.U64Slice()
	m.Rect = decodeRect(r)
	m.RegionCode = r.Code()
	m.Hops = r.U8()
	m.Historic = r.Bool()
	m.Attempt = r.U8()
	m.TreeEpoch = r.Uvarint()
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
	RecID    []uint64
	Recs     [][]uint64
	Hops     uint8 // overlay hops the sub-query travelled
}

func (m *QueryResp) Kind() Kind { return KindQueryResp }
func (m *QueryResp) encode(w *Writer) {
	w.Uvarint(m.ReqID)
	m.From.encode(w)
	w.Bool(m.HasCover)
	w.Code(m.Cover)
	w.U64Slice(m.Versions)
	w.U64Slice(m.RecID)
	w.Uvarint(uint64(len(m.Recs)))
	for _, rec := range m.Recs {
		w.U64Slice(rec)
	}
	w.U8(m.Hops)
}
func (m *QueryResp) decode(r *Reader) {
	m.ReqID = r.Uvarint()
	m.From.decode(r)
	m.HasCover = r.Bool()
	m.Cover = r.Code()
	m.Versions = r.U64Slice()
	m.RecID = r.U64Slice()
	n := r.Uvarint()
	if n > MaxSliceLen {
		r.fail("too many records: %d", n)
		return
	}
	if n != uint64(len(m.RecID)) {
		// The originator indexes Recs by RecID position.
		r.fail("record slices disagree: %d ids, %d records", len(m.RecID), n)
		return
	}
	m.Recs = make([][]uint64, n)
	for i := range m.Recs {
		m.Recs[i] = r.U64Slice()
	}
	m.Hops = r.U8()
}

// --- Control path -------------------------------------------------------

// CreateIndex floods an index definition across the overlay (§3.4).
type CreateIndex struct {
	OpID uint64
	Def  IndexDef
}

func (m *CreateIndex) Kind() Kind { return KindCreateIndex }
func (m *CreateIndex) encode(w *Writer) {
	w.Uvarint(m.OpID)
	m.Def.encode(w)
}
func (m *CreateIndex) decode(r *Reader) {
	m.OpID = r.Uvarint()
	m.Def.decode(r)
}

// DropIndex floods an index removal.
type DropIndex struct {
	OpID uint64
	Tag  string
}

func (m *DropIndex) Kind() Kind { return KindDropIndex }
func (m *DropIndex) encode(w *Writer) {
	w.Uvarint(m.OpID)
	w.String(m.Tag)
}
func (m *DropIndex) decode(r *Reader) {
	m.OpID = r.Uvarint()
	m.Tag = r.String()
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
func (m *HistReport) encode(w *Writer) {
	w.String(m.Index)
	w.Uvarint(uint64(m.Day))
	w.String(m.NodeAddr)
	w.BytesField(m.Hist)
	w.U8(m.Hops)
	w.Uvarint(m.ReqID)
}
func (m *HistReport) decode(r *Reader) {
	m.Index = r.String()
	m.Day = uint32(r.Uvarint())
	m.NodeAddr = r.String()
	m.Hist = r.BytesField()
	m.Hops = r.U8()
	m.ReqID = r.Uvarint()
}

// HistReportAck confirms that the designated aggregator merged (or
// deduplicated) one histogram report.
type HistReportAck struct {
	ReqID uint64
}

func (m *HistReportAck) Kind() Kind { return KindHistReportAck }
func (m *HistReportAck) encode(w *Writer) {
	w.Uvarint(m.ReqID)
}
func (m *HistReportAck) decode(r *Reader) {
	m.ReqID = r.Uvarint()
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
func (m *HistInstall) encode(w *Writer) {
	w.Uvarint(m.OpID)
	w.String(m.Index)
	w.Uvarint(uint64(m.Version))
	w.BytesField(m.Tree)
	w.Uvarint(m.Epoch)
}
func (m *HistInstall) decode(r *Reader) {
	m.OpID = r.Uvarint()
	m.Index = r.String()
	m.Version = uint32(r.Uvarint())
	m.Tree = r.BytesField()
	m.Epoch = r.Uvarint()
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
func (m *TreePull) encode(w *Writer) {
	w.String(m.From)
	w.String(m.Index)
	w.Uvarint(uint64(m.Version))
}
func (m *TreePull) decode(r *Reader) {
	m.From = r.String()
	m.Index = r.String()
	m.Version = uint32(r.Uvarint())
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
func (m *TreePush) encode(w *Writer) {
	w.String(m.Index)
	w.Uvarint(uint64(m.Version))
	w.Uvarint(m.Epoch)
	w.BytesField(m.Tree)
}
func (m *TreePush) decode(r *Reader) {
	m.Index = r.String()
	m.Version = uint32(r.Uvarint())
	m.Epoch = r.Uvarint()
	m.Tree = r.BytesField()
}

// TreeSyncReq asks a peer for its installed-tree summary after a
// heartbeat digest mismatch.
type TreeSyncReq struct {
	From string
}

func (m *TreeSyncReq) Kind() Kind { return KindTreeSyncReq }
func (m *TreeSyncReq) encode(w *Writer) {
	w.String(m.From)
}
func (m *TreeSyncReq) decode(r *Reader) {
	m.From = r.String()
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
func (m *TreeSyncResp) encode(w *Writer) {
	w.String(m.From)
	w.Uvarint(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		w.String(e.Index)
		w.Uvarint(uint64(e.Version))
		w.Uvarint(e.Epoch)
	}
}
func (m *TreeSyncResp) decode(r *Reader) {
	m.From = r.String()
	n := r.Uvarint()
	if n > 1<<16 {
		r.fail("too many tree-sync entries: %d", n)
		return
	}
	m.Entries = make([]TreeSyncEntry, n)
	for i := range m.Entries {
		m.Entries[i].Index = r.String()
		m.Entries[i].Version = uint32(r.Uvarint())
		m.Entries[i].Epoch = r.Uvarint()
	}
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
func (m *CollisionProbe) encode(w *Writer) {
	m.From.encode(w)
	w.Uvarint(m.Epoch)
}
func (m *CollisionProbe) decode(r *Reader) {
	m.From.decode(r)
	m.Epoch = r.Uvarint()
}

// CollisionReply answers a collision probe the sender won, telling the
// probing loser to step down.
type CollisionReply struct {
	From  NodeInfo
	Epoch uint64
}

func (m *CollisionReply) Kind() Kind { return KindCollisionReply }
func (m *CollisionReply) encode(w *Writer) {
	m.From.encode(w)
	w.Uvarint(m.Epoch)
}
func (m *CollisionReply) decode(r *Reader) {
	m.From.decode(r)
	m.Epoch = r.Uvarint()
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
func (m *CollisionHint) encode(w *Writer) {
	m.Peer.encode(w)
}
func (m *CollisionHint) decode(r *Reader) {
	m.Peer.decode(r)
}
