package baseline

import (
	"fmt"
	"sync"
	"time"

	"mind/internal/bitstr"
	"mind/internal/schema"
	"mind/internal/store"
	"mind/internal/transport"
	"mind/internal/wire"
)

// CentralServer is the single storage node of the centralized
// architecture: all records move here and all queries resolve here.
type CentralServer struct {
	mu    sync.Mutex
	ep    transport.Endpoint
	sch   *schema.Schema
	data  *store.Sharded
	acked uint64
}

// NewCentralServer creates the server on an endpoint.
func NewCentralServer(ep transport.Endpoint, sch *schema.Schema) *CentralServer {
	s := &CentralServer{ep: ep, sch: sch, data: store.NewSharded(sch, store.Options{})}
	ep.SetHandler(s.dispatch)
	return s
}

// Len returns the stored record count.
func (s *CentralServer) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data.Len()
}

func (s *CentralServer) dispatch(from string, data []byte) {
	m, err := wire.Decode(data)
	if err != nil {
		return
	}
	switch msg := m.(type) {
	case *wire.InsertRun:
		acks := &wire.InsertAcks{}
		s.mu.Lock()
		msg.Rows.EachRow(func(row []uint64) {
			reqID, _, hops, rec := wire.InsertRow(row)
			s.data.Insert(rec)
			acks.Append(reqID, hops)
		})
		s.acked += uint64(msg.Rows.Len())
		s.mu.Unlock()
		_ = s.ep.Send(msg.OriginAddr, wire.Encode(acks))
	case *wire.Query:
		resp := &wire.QueryResp{ReqID: msg.ReqID, From: wire.NodeInfo{Addr: s.ep.Addr()}, HasCover: true}
		s.mu.Lock()
		s.data.VisitBatches(msg.Rect, resp.Recs.AppendBatch)
		s.mu.Unlock()
		_ = s.ep.Send(msg.OriginAddr, wire.Encode(resp))
	}
}

// CentralClient is a monitor in the centralized architecture.
type CentralClient struct {
	mu      sync.Mutex
	ep      transport.Endpoint
	clock   transport.Clock
	server  string
	reqSeq  uint64
	inserts map[uint64]*centralOp
	queries map[uint64]*centralOp
}

type centralOp struct {
	insertCB func(ok bool)
	queryCB  func(QueryResult)
	timer    transport.Timer
}

// NewCentralClient creates a client pointed at the server address.
func NewCentralClient(ep transport.Endpoint, clock transport.Clock, server string) *CentralClient {
	c := &CentralClient{
		ep:      ep,
		clock:   clock,
		server:  server,
		inserts: make(map[uint64]*centralOp),
		queries: make(map[uint64]*centralOp),
	}
	ep.SetHandler(c.dispatch)
	return c
}

// Insert ships the record to the central server.
func (c *CentralClient) Insert(rec schema.Record, timeout time.Duration, cb func(ok bool)) {
	c.mu.Lock()
	c.reqSeq++
	reqID := c.reqSeq
	op := &centralOp{insertCB: cb}
	c.inserts[reqID] = op
	op.timer = c.clock.AfterFunc(timeout, func() { c.finishInsert(reqID, false) })
	c.mu.Unlock()
	run := &wire.InsertRun{OriginAddr: c.ep.Addr()}
	run.Append(reqID, bitstr.Empty, 0, rec)
	_ = c.ep.Send(c.server, wire.Encode(run))
}

// Query sends the rect to the central server.
func (c *CentralClient) Query(rect schema.Rect, timeout time.Duration, cb func(QueryResult)) error {
	if !rect.Valid() {
		return fmt.Errorf("baseline: invalid rect")
	}
	c.mu.Lock()
	c.reqSeq++
	reqID := c.reqSeq
	op := &centralOp{queryCB: cb}
	c.queries[reqID] = op
	op.timer = c.clock.AfterFunc(timeout, func() { c.finishQuery(reqID, QueryResult{Complete: false}) })
	c.mu.Unlock()
	_ = c.ep.Send(c.server, wire.Encode(&wire.Query{ReqID: reqID, OriginAddr: c.ep.Addr(), Rect: rect}))
	return nil
}

func (c *CentralClient) finishInsert(reqID uint64, ok bool) {
	c.mu.Lock()
	op, exists := c.inserts[reqID]
	if !exists {
		c.mu.Unlock()
		return
	}
	delete(c.inserts, reqID)
	if op.timer != nil {
		op.timer.Stop()
	}
	c.mu.Unlock()
	if op.insertCB != nil {
		op.insertCB(ok)
	}
}

func (c *CentralClient) finishQuery(reqID uint64, res QueryResult) {
	c.mu.Lock()
	op, exists := c.queries[reqID]
	if !exists {
		c.mu.Unlock()
		return
	}
	delete(c.queries, reqID)
	if op.timer != nil {
		op.timer.Stop()
	}
	c.mu.Unlock()
	if op.queryCB != nil {
		op.queryCB(res)
	}
}

func (c *CentralClient) dispatch(from string, data []byte) {
	m, err := wire.Decode(data)
	if err != nil {
		return
	}
	switch msg := m.(type) {
	case *wire.InsertAcks:
		msg.Rows.EachRow(func(row []uint64) {
			reqID, _ := wire.AckRow(row)
			c.finishInsert(reqID, true)
		})
	case *wire.QueryResp:
		c.finishQuery(msg.ReqID, QueryResult{Complete: true, Responders: 1, Records: msg.Recs.Records()})
	}
}
