package mind

import (
	"mind/internal/wire"
)

// Client-facing RPC handling: §3.2's interface invoked remotely. A
// client outside the overlay sends ClientInsert / ClientQuery /
// ClientCreateIndex / ClientDropIndex to any node; the node executes the
// operation on the client's behalf and replies directly.
//
// Clients retransmit un-acked requests (the transport is lossy), so the
// entry node keeps a bounded cache of recent ClientInsert request ids:
// a duplicate does not insert a second record — the cached ack is
// replayed if the insert finished, or the duplicate is absorbed while it
// is still in flight (the pending callback will ack). Reads keep no
// such history: a query or aggregate is remembered only while it is in
// flight, so a duplicate arriving then is absorbed, and a re-ask of a
// finished read simply re-executes (reads are naturally idempotent).

// clientOpKey namespaces a client request id by the client's address, so
// independent clients reusing request ids cannot collide.
func clientOpKey(from string, reqID uint64) uint64 {
	return hashAddr(from) ^ reqID*0x9e3779b97f4a7c15
}

// clientAggKeyMix separates aggregate ids from query ids in flight.
const clientAggKeyMix = 0x2545f4914f6cdd1d

// shedAck refuses one client request under overload: an explicit shed
// response, no execution, no dedup-cache entry (the retry must be
// re-admitted as a fresh request).
func (n *Node) shedAck(from string, reqID uint64) {
	n.send(from, &wire.ClientAck{ReqID: reqID, OK: false, Shed: true, Error: "overloaded: request shed"})
}

func (n *Node) handleClientInsert(from string, m *wire.ClientInsert) {
	if !n.admitClient(from, true) {
		n.shedInserts.Add(1)
		n.shedAck(from, m.ReqID)
		return
	}
	key := clientOpKey(from, m.ReqID)
	n.mu.Lock()
	if cached, ok := n.clientOps.Get(key); ok {
		n.dedupHits.Add(1)
		n.mu.Unlock()
		if cached != nil {
			n.send(from, cached)
		}
		return
	}
	n.clientOps.Put(key, nil)
	n.mu.Unlock()

	finish := func(ack *wire.ClientAck) {
		n.mu.Lock()
		n.clientOps.Put(key, ack)
		n.mu.Unlock()
		n.send(from, ack)
	}
	err := n.Insert(m.Index, m.Rec, func(res InsertResult) {
		ack := &wire.ClientAck{ReqID: m.ReqID, OK: res.OK, Hops: uint8(res.Hops)}
		if res.Err != nil {
			ack.Error = res.Err.Error()
		}
		finish(ack)
	})
	if err != nil {
		finish(&wire.ClientAck{ReqID: m.ReqID, OK: false, Error: err.Error()})
	}
}

// serveClientRead is the skeleton of every client read RPC: admit, absorb
// a duplicate of a request still in flight (its callback will respond),
// run, and forget the request as its one reply leaves (a scatter
// replies at completion or QueryTimeout, a refused run here). refuse
// builds the kind's empty incomplete response, flagged Shed for overload
// refusal.
func (n *Node) serveClientRead(from string, key uint64, refuse func(shed bool) wire.Message, run func(reply func(wire.Message)) error) {
	if !n.admitClient(from, false) {
		n.shedQueries.Add(1)
		n.send(from, refuse(true))
		return
	}
	n.mu.Lock()
	if _, ok := n.clientReads[key]; ok {
		n.dedupHits.Add(1)
		n.mu.Unlock()
		return
	}
	n.clientReads[key] = struct{}{}
	n.mu.Unlock()

	reply := func(resp wire.Message) {
		n.mu.Lock()
		delete(n.clientReads, key)
		n.mu.Unlock()
		n.send(from, resp)
	}
	if err := run(reply); err != nil {
		reply(refuse(false))
	}
}

func (n *Node) handleClientQuery(from string, m *wire.ClientQuery) {
	n.serveClientRead(from, clientOpKey(from, m.ReqID),
		func(shed bool) wire.Message { return &wire.ClientQueryResp{ReqID: m.ReqID, Shed: shed} },
		func(reply func(wire.Message)) error {
			return n.query(m.Index, m.Rect, func(recs wire.Groups, res QueryResult) {
				reply(&wire.ClientQueryResp{
					ReqID:      m.ReqID,
					Complete:   res.Complete,
					Responders: uint32(res.Responders),
					List:       recs,
				})
			})
		})
}

func (n *Node) handleClientAgg(from string, m *wire.ClientAgg) {
	n.serveClientRead(from, clientOpKey(from, m.ReqID)^clientAggKeyMix,
		func(shed bool) wire.Message { return &wire.ClientAggResp{ReqID: m.ReqID, Shed: shed} },
		func(reply func(wire.Message)) error {
			return n.Agg(m.Index, m.Rect, int(m.TopK), func(res AggResult) {
				resp := &wire.ClientAggResp{
					ReqID:      m.ReqID,
					Complete:   res.Complete,
					Responders: uint32(res.Responders),
					Count:      res.Count,
					Sums:       res.Sums,
					Exact:      res.Exact,
					SketchN:    res.SketchN,
					Floor:      res.Floor,
				}
				for _, e := range res.TopK {
					resp.Keys = append(resp.Keys, e.Key)
					resp.Counts = append(resp.Counts, e.Count)
					resp.Errs = append(resp.Errs, e.Err)
				}
				reply(resp)
			})
		})
}

func (n *Node) handleClientCreateIndex(from string, m *wire.ClientCreateIndex) {
	if !n.admitClient(from, false) {
		n.shedInserts.Add(1)
		n.shedAck(from, m.ReqID)
		return
	}
	err := n.CreateIndex(m.Schema, nil)
	ack := &wire.ClientAck{ReqID: m.ReqID, OK: err == nil}
	if err != nil {
		ack.Error = err.Error()
	}
	n.send(from, ack)
}

func (n *Node) handleClientDropIndex(from string, m *wire.ClientDropIndex) {
	if !n.admitClient(from, false) {
		n.shedInserts.Add(1)
		n.shedAck(from, m.ReqID)
		return
	}
	err := n.DropIndex(m.Tag)
	ack := &wire.ClientAck{ReqID: m.ReqID, OK: err == nil}
	if err != nil {
		ack.Error = err.Error()
	}
	n.send(from, ack)
}
