package wire

import "mind/internal/schema"

// Client-facing messages: §3.2 allows the MIND interface to be invoked
// via remote procedure call from outside the overlay. A client (e.g.
// cmd/mindctl, or a traffic monitor co-located with a router) sends one
// of these to any MIND node; the node executes the operation on the
// client's behalf and answers with ClientAck / ClientQueryResp.

// Client message kinds continue the Kind space.
const (
	KindClientInsert Kind = 64 + iota
	KindClientQuery
	KindClientCreateIndex
	KindClientDropIndex
	KindClientAck
	KindClientQueryResp
	KindClientVersions
	KindClientVersionsResp
	KindClientAgg
	KindClientAggResp
)

// ClientInsert asks the receiving node to insert a record.
type ClientInsert struct {
	ReqID uint64
	Index string
	Rec   []uint64
}

func (m *ClientInsert) Kind() Kind { return KindClientInsert }
func (m *ClientInsert) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.String(&m.Index)
	c.U64s(&m.Rec)
}

// ClientQuery asks the receiving node to resolve a range query.
type ClientQuery struct {
	ReqID uint64
	Index string
	Rect  schema.Rect
}

func (m *ClientQuery) Kind() Kind { return KindClientQuery }
func (m *ClientQuery) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.String(&m.Index)
	c.Rect(&m.Rect)
}

// ClientCreateIndex asks the receiving node to create an index with a
// uniform embedding.
type ClientCreateIndex struct {
	ReqID  uint64
	Schema *schema.Schema
}

func (m *ClientCreateIndex) Kind() Kind { return KindClientCreateIndex }
func (m *ClientCreateIndex) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.Schema(&m.Schema)
}

// ClientDropIndex asks the receiving node to drop an index.
type ClientDropIndex struct {
	ReqID uint64
	Tag   string
}

func (m *ClientDropIndex) Kind() Kind { return KindClientDropIndex }
func (m *ClientDropIndex) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.String(&m.Tag)
}

// ClientAck answers ClientInsert / ClientCreateIndex / ClientDropIndex.
type ClientAck struct {
	ReqID uint64
	OK    bool
	Error string
	Hops  uint8
	// Shed reports that the node refused the request under overload
	// (admission control) without executing it. The client should retry
	// later — the request id was NOT recorded, so the retry is a fresh
	// request, not a duplicate.
	Shed bool
}

func (m *ClientAck) Kind() Kind { return KindClientAck }
func (m *ClientAck) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.Bool(&m.OK)
	c.String(&m.Error)
	c.U8(&m.Hops)
	c.Bool(&m.Shed)
}

// ClientQueryResp answers ClientQuery with the assembled results.
type ClientQueryResp struct {
	ReqID      uint64
	Complete   bool
	Responders uint32
	// Recs are the records; decoding always fills them.
	Recs []schema.Record
	// List is an encode-only source of the records, written in place of
	// Recs when it is non-empty: the node hands on the groups it spliced
	// from its answers without decoding them.
	List Groups
	// Shed reports overload refusal, as in ClientAck.
	Shed bool
}

func (m *ClientQueryResp) Kind() Kind { return KindClientQueryResp }
func (m *ClientQueryResp) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.Bool(&m.Complete)
	c.Bool(&m.Shed)
	c.U32(&m.Responders)
	if !c.dec && m.List.Len() > 0 {
		c.Groups(&m.List)
	} else {
		c.GroupRecs(&m.Recs)
	}
}

// ClientVersions asks the receiving node for its per-index installed
// tree-version summary plus its membership epoch — the probe mindctl's
// skew subcommand sends to every listed node to diff version state
// across a deployment.
type ClientVersions struct {
	ReqID uint64
}

func (m *ClientVersions) Kind() Kind { return KindClientVersions }
func (m *ClientVersions) fields(c *codec) {
	c.Uvarint(&m.ReqID)
}

// ClientVersionsResp answers ClientVersions.
type ClientVersionsResp struct {
	ReqID   uint64
	Addr    string
	Code    string
	Epoch   uint64 // membership (fencing) epoch
	Entries []TreeSyncEntry
}

func (m *ClientVersionsResp) Kind() Kind { return KindClientVersionsResp }
func (m *ClientVersionsResp) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.String(&m.Addr)
	c.String(&m.Code)
	c.Uvarint(&m.Epoch)
	c.Entries(&m.Entries)
}
