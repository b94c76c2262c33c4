package wire

import (
	"mind/internal/bitstr"
	"mind/internal/schema"
)

// Aggregate path (DESIGN.md §4i): COUNT/SUM/top-k over a rectangle
// answered from the per-node summary layer instead of materializing
// records. AggQuery plays both roles the record path splits between
// Query and SubQuery — the initial message routed toward the smallest
// region containing the rect, and the decomposed per-region pieces —
// because an aggregate answer carries no record payload, so there is
// nothing to gain from a distinct whole-query envelope.

// AggQuery asks the owner of RegionCode for the aggregate of Rect
// restricted to that region. A receiver whose code is a prefix of
// RegionCode answers the whole region; one whose code extends it
// re-decomposes against the originator's tree; otherwise it forwards.
type AggQuery struct {
	ReqID      uint64
	OriginAddr string
	Index      string
	Versions   []uint64
	Rect       schema.Rect
	RegionCode bitstr.Code
	// TopK caps the heavy-hitter entries in each answer (<= the summary
	// sketch capacity; 0 means the node's configured capacity).
	TopK uint32
	Hops uint8
	// Historic marks a piece forwarded along a §3.4 history pointer;
	// answered from local storage, skipping ownership checks.
	Historic bool
	// Attempt counts originator re-issues for a still-missing region.
	Attempt uint8
	// TreeEpoch identifies the cut tree the originator decomposed with.
	// Aggregate answers ARE geometry-dependent (the answering node
	// restricts to its region's cell rect), so unlike the record path
	// the answer side also re-checks epoch agreement.
	TreeEpoch uint64
}

func (m *AggQuery) Kind() Kind { return KindAggQuery }
func (m *AggQuery) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.String(&m.OriginAddr)
	c.String(&m.Index)
	c.U64s(&m.Versions)
	c.Rect(&m.Rect)
	c.Code(&m.RegionCode)
	c.U32(&m.TopK)
	c.U8(&m.Hops)
	c.Bool(&m.Historic)
	c.U8(&m.Attempt)
	c.Uvarint(&m.TreeEpoch)
}

// AggResp carries one region's partial aggregate back to the
// originator: exact count and per-attribute sums (wrapping mod 2^64)
// over Rect ∩ the answered region, plus the region's heavy-hitter
// sketch flattened to parallel slices. Cover/HasCover work exactly as
// in QueryResp — the originator tiles Cover codes until the query
// region is complete, and a history-delegating node contributes with
// HasCover false.
type AggResp struct {
	ReqID    uint64
	From     NodeInfo
	HasCover bool
	Cover    bitstr.Code
	Versions []uint64
	Hops     uint8

	Count uint64
	Sums  []uint64

	// Flattened summary.Sketch: parallel Keys/Counts/Errs in canonical
	// order, total offered weight and the absent-key floor. Floor == 0
	// means the partial's top-k is exact.
	SketchK uint32
	SketchN uint64
	Floor   uint64
	Keys    []uint64
	Counts  []uint64
	Errs    []uint64
}

func (m *AggResp) Kind() Kind { return KindAggResp }
func (m *AggResp) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.Node(&m.From)
	c.Bool(&m.HasCover)
	c.Code(&m.Cover)
	c.U64s(&m.Versions)
	c.U8(&m.Hops)
	c.U64(&m.Count)
	c.U64s(&m.Sums)
	c.U32(&m.SketchK)
	c.U64(&m.SketchN)
	c.U64(&m.Floor)
	c.Sketch(&m.Keys, &m.Counts, &m.Errs)
}

// ClientAgg asks the receiving node to resolve an aggregate query on
// the client's behalf (mindctl agg).
type ClientAgg struct {
	ReqID uint64
	Index string
	Rect  schema.Rect
	TopK  uint32
}

func (m *ClientAgg) Kind() Kind { return KindClientAgg }
func (m *ClientAgg) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.String(&m.Index)
	c.Rect(&m.Rect)
	c.U32(&m.TopK)
}

// ClientAggResp answers ClientAgg with the merged aggregate.
type ClientAggResp struct {
	ReqID      uint64
	Complete   bool
	Responders uint32
	// Shed reports overload refusal, as in ClientAck.
	Shed bool

	Count uint64
	Sums  []uint64
	// Exact reports that the heavy-hitter entries are exact counts, not
	// estimates (no sketch anywhere evicted or truncated).
	Exact   bool
	SketchN uint64
	Floor   uint64
	Keys    []uint64
	Counts  []uint64
	Errs    []uint64
}

func (m *ClientAggResp) Kind() Kind { return KindClientAggResp }
func (m *ClientAggResp) fields(c *codec) {
	c.Uvarint(&m.ReqID)
	c.Bool(&m.Complete)
	c.Bool(&m.Shed)
	c.Bool(&m.Exact)
	c.U32(&m.Responders)
	c.U64(&m.Count)
	c.U64s(&m.Sums)
	c.U64(&m.SketchN)
	c.U64(&m.Floor)
	c.Sketch(&m.Keys, &m.Counts, &m.Errs)
}
