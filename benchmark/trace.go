package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mind/internal/ingest"
	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/transport"
	"mind/internal/wire"
)

// Tracing wraps layer boundaries from outside: transport.Endpoint and
// ingest.BatchInserter are interfaces, so the benchmark decorates them
// and nothing under internal/ changes. From outside, a sub-message
// cannot be tied to the client request that caused it (internal request
// ids differ), so every span's parent is the workload phase and per-op
// figures are totals ÷ ops; per-request waterfalls need in-program
// tracing, which is a later change.

// span is one recorded interval. val carries the boundary's count: bytes
// for tcpnet.send and mind.handle.*, records for the ingest spans.
type span struct {
	name  uint16
	start int64 // ns since tracer.t0
	dur   int64
	val   int32
}

// Fixed span names; mind.handle.<kind> ids follow them.
const (
	spanSend uint16 = iota
	spanInsertBatch
	spanBatchAck
	spanClientInsert
	spanClientQuery
	spanClientAgg
	spanClientFrame
	numFixedSpans
)

// traceShard is one producer's span buffer. Node i writes shard i; the
// load generator and the ingest decorator write the last shard.
type traceShard struct {
	mu    sync.Mutex
	spans []span
	_     [40]byte // keep neighbouring shards' locks on separate cache lines
}

type tracer struct {
	t0      time.Time
	names   []string
	kindID  [256]uint16
	shards  []traceShard
	enabled atomic.Bool // spans are kept only while a timed phase runs
}

func newTracer(nodes int) *tracer {
	t := &tracer{
		t0:     time.Now(),
		names:  []string{"tcpnet.send", "ingest.insert_batch", "ingest.batch_ack", "client.insert", "client.query", "client.agg", "client.frame"},
		shards: make([]traceShard, nodes+1),
	}
	for k := 0; k < 256; k++ {
		t.kindID[k] = uint16(len(t.names))
		t.names = append(t.names, "mind.handle."+wire.Kind(k).String())
	}
	return t
}

// clientShard is the shard the load generator and the ingest decorator
// record into.
func (t *tracer) clientShard() int { return len(t.shards) - 1 }

func (t *tracer) add(shard int, name uint16, start time.Time, dur time.Duration, val int) {
	if !t.enabled.Load() {
		return
	}
	s := &t.shards[shard]
	s.mu.Lock()
	s.spans = append(s.spans, span{name: name, start: int64(start.Sub(t.t0)), dur: int64(dur), val: int32(val)})
	s.mu.Unlock()
}

// each visits every recorded span with the index of the shard (node)
// that recorded it.
func (t *tracer) each(f func(node int, s span)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, s := range sh.spans {
			f(i, s)
		}
		sh.mu.Unlock()
	}
}

// writeJSON writes the spans as one JSON document. Span ids are
// positions in the list plus one; parent 0 is the workload phase.
func (t *tracer) writeJSON(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"root\":{\"id\":0,\"name\":\"phase.%s\"},\"spans\":[", workload, workload)
	id := 0
	t.each(func(node int, s span) {
		if id > 0 {
			w.WriteByte(',')
		}
		id++
		fmt.Fprintf(w, "\n{\"id\":%d,\"parent\":0,\"name\":%q,\"node\":%d,\"start_ns\":%d,\"end_ns\":%d,\"val\":%d}",
			id, t.names[s.name], node, s.start, s.start+s.dur, s.val)
	})
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}

// leadKind is the wire kind a handler invocation is booked under: the
// first byte, or for a coalescing envelope the kind of its first
// sub-message (an InsertBatch group is a Batch of Inserts).
func leadKind(msg []byte) byte {
	if len(msg) == 0 {
		return 0
	}
	if wire.Kind(msg[0]) != wire.KindBatch {
		return msg[0]
	}
	rest := msg[1:]
	if _, n := binary.Uvarint(rest); n > 0 { // sub-message count
		rest = rest[n:]
		if l, n := binary.Uvarint(rest); n > 0 && l > 0 && len(rest) > n {
			return rest[n]
		}
	}
	return msg[0]
}

// tracedEndpoint records tcpnet.send around every Send and
// mind.handle.<kind> around every handler invocation of one node.
type tracedEndpoint struct {
	transport.Endpoint
	tr   *tracer
	node int
}

func (e *tracedEndpoint) Send(to string, msg []byte) error {
	start := time.Now()
	err := e.Endpoint.Send(to, msg)
	e.tr.add(e.node, spanSend, start, time.Since(start), len(msg))
	return err
}

func (e *tracedEndpoint) SetHandler(h transport.Handler) {
	e.Endpoint.SetHandler(func(from string, msg []byte) {
		start := time.Now()
		kind := leadKind(msg) // read before h: the handler may recycle msg
		size := len(msg)
		h(from, msg)
		e.tr.add(e.node, e.tr.kindID[kind], start, time.Since(start), size)
	})
}

// tracedInserter records ingest.insert_batch around the engine's call
// into the node and ingest.batch_ack from that call to its callback.
type tracedInserter struct {
	ins ingest.BatchInserter
	tr  *tracer
}

func (t *tracedInserter) InsertBatch(tag string, recs []schema.Record, cb func([]mind.InsertResult)) error {
	n := len(recs)
	start := time.Now()
	err := t.ins.InsertBatch(tag, recs, func(res []mind.InsertResult) {
		t.tr.add(t.tr.clientShard(), spanBatchAck, start, time.Since(start), n)
		cb(res)
	})
	t.tr.add(t.tr.clientShard(), spanInsertBatch, start, time.Since(start), n)
	return err
}

// Handler-time groups for mind.handle_us_per_op.*.
const (
	groupInsert = iota
	groupQuery
	groupAgg
	groupResp
	groupOverlay
	numGroups
)

func kindGroup(k wire.Kind) int {
	switch k {
	case wire.KindClientInsert, wire.KindInsert, wire.KindReplicate, wire.KindInsertAck:
		return groupInsert
	case wire.KindClientQuery, wire.KindQuery, wire.KindSubQuery:
		return groupQuery
	case wire.KindClientAgg, wire.KindAggQuery:
		return groupAgg
	case wire.KindQueryResp, wire.KindAggResp:
		return groupResp
	}
	return groupOverlay
}

// traceTotals is what the traced pass contributes to the per-layer
// metrics.
type traceTotals struct {
	handleNS    [numGroups]int64
	handleCalls [numGroups]int64
	sendNS      []float64 // one per Send call
	sendBytes   int64
	batchCallNS int64
	batchCalls  int64
	batchRecs   int64
	batchAckNS  []float64
}

func (t *tracer) totals() traceTotals {
	var tt traceTotals
	first := t.kindID[0]
	t.each(func(_ int, s span) {
		switch {
		case s.name == spanSend:
			tt.sendNS = append(tt.sendNS, float64(s.dur))
			tt.sendBytes += int64(s.val)
		case s.name == spanInsertBatch:
			tt.batchCallNS += s.dur
			tt.batchCalls++
			tt.batchRecs += int64(s.val)
		case s.name == spanBatchAck:
			tt.batchAckNS = append(tt.batchAckNS, float64(s.dur))
		case s.name >= first:
			g := kindGroup(wire.Kind(s.name - first))
			tt.handleNS[g] += s.dur
			tt.handleCalls[g]++
		}
	})
	return tt
}
