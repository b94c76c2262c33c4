// Package baseline implements the two alternative architectures §2.1
// weighs MIND against, over the same transport and storage substrates:
//
//   - Flooding: every monitor keeps its records locally and each query is
//     flooded to every node; all nodes evaluate every query.
//   - Centralized: every record moves to one central node; queries go
//     there too.
//
// Both share MIND's wire format and local storage engine, so comparative
// benchmarks isolate the architectural difference: per-query work and
// traffic concentration for flooding/centralized versus locality-routed
// sub-queries in MIND.
package baseline

import (
	"fmt"
	"sync"
	"time"

	"mind/internal/schema"
	"mind/internal/store"
	"mind/internal/transport"
	"mind/internal/wire"
)

// QueryResult mirrors mind.QueryResult for the baselines.
type QueryResult struct {
	Records    []schema.Record
	Complete   bool
	Responders int
}

// FloodNode is one node of the query-flooding architecture.
type FloodNode struct {
	mu      sync.Mutex
	ep      transport.Endpoint
	clock   transport.Clock
	sch     *schema.Schema
	local   *store.Sharded
	peers   []string
	queries map[uint64]*floodQuery
	reqSeq  uint64
}

type floodQuery struct {
	cb        func(QueryResult)
	expected  int
	responses map[string]bool
	records   []schema.Record
	timer     transport.Timer
}

// NewFloodNode creates a flooding node; peers must list every other node
// (flooding assumes full membership knowledge).
func NewFloodNode(ep transport.Endpoint, clock transport.Clock, sch *schema.Schema, peers []string) *FloodNode {
	n := &FloodNode{
		ep:      ep,
		clock:   clock,
		sch:     sch,
		local:   store.NewSharded(sch, store.Options{}),
		peers:   append([]string(nil), peers...),
		queries: make(map[uint64]*floodQuery),
	}
	ep.SetHandler(n.dispatch)
	return n
}

// Insert stores locally — flooding never moves records at insert time,
// which is its bandwidth advantage (§2.1).
func (n *FloodNode) Insert(rec schema.Record) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.local.Insert(rec)
}

// Len returns the local record count.
func (n *FloodNode) Len() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.local.Len()
}

// Query floods the rect to every peer and waits for all answers (or the
// timeout).
func (n *FloodNode) Query(rect schema.Rect, timeout time.Duration, cb func(QueryResult)) error {
	if !rect.Valid() {
		return fmt.Errorf("baseline: invalid rect")
	}
	n.mu.Lock()
	n.reqSeq++
	reqID := n.reqSeq
	q := &floodQuery{
		cb:        cb,
		expected:  len(n.peers),
		responses: make(map[string]bool),
		records:   n.local.Query(rect),
	}
	n.queries[reqID] = q
	q.timer = n.clock.AfterFunc(timeout, func() { n.finish(reqID, false) })
	peers := n.peers
	n.mu.Unlock()

	if len(peers) == 0 {
		n.finish(reqID, true)
		return nil
	}
	msg := &wire.Query{ReqID: reqID, OriginAddr: n.ep.Addr(), Rect: rect}
	for _, p := range peers {
		_ = n.ep.Send(p, wire.Encode(msg))
	}
	return nil
}

func (n *FloodNode) finish(reqID uint64, complete bool) {
	n.mu.Lock()
	q, ok := n.queries[reqID]
	if !ok {
		n.mu.Unlock()
		return
	}
	delete(n.queries, reqID)
	if q.timer != nil {
		q.timer.Stop()
	}
	res := QueryResult{Records: q.records, Complete: complete, Responders: len(q.responses) + 1}
	n.mu.Unlock()
	if q.cb != nil {
		q.cb(res)
	}
}

func (n *FloodNode) dispatch(from string, data []byte) {
	m, err := wire.Decode(data)
	if err != nil {
		return
	}
	switch msg := m.(type) {
	case *wire.Query:
		// Every node evaluates every query: the flooding cost model.
		resp := &wire.QueryResp{ReqID: msg.ReqID, From: wire.NodeInfo{Addr: n.ep.Addr()}}
		n.mu.Lock()
		n.local.VisitBatches(msg.Rect, resp.Recs.AppendBatch)
		n.mu.Unlock()
		_ = n.ep.Send(msg.OriginAddr, wire.Encode(resp))
	case *wire.QueryResp:
		n.mu.Lock()
		q, ok := n.queries[msg.ReqID]
		if !ok {
			n.mu.Unlock()
			return
		}
		if !q.responses[msg.From.Addr] {
			q.responses[msg.From.Addr] = true
			q.records = append(q.records, msg.Recs.Records()...)
		}
		done := len(q.responses) >= q.expected
		n.mu.Unlock()
		if done {
			n.finish(msg.ReqID, true)
		}
	}
}
