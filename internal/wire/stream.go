package wire

import (
	"encoding/binary"
	"fmt"
)

// Streaming ingest framing: raw flow records travel to a node's ingest
// listener as flow frames — batches of fixed-width records — and the
// listener answers with stream-status frames carrying cumulative
// admission and ack counters plus a backpressure bit. Flow frames are
// deliberately NOT Messages: the record payload is fixed-width u64s laid
// out for in-place parsing, so a receiver decodes a frame with zero
// allocations into a reused buffer (ParseFlowFrame returns views, and
// Record copies one record into a caller-pooled slice). Stream status is
// a normal Message — it is small and infrequent, and reusing the codec
// keeps it evolvable.

// KindFlowFrame identifies a streaming ingest flow frame. Like
// KindBatch it lives outside the protocol kind groups: it is an ingest
// transport frame, not a protocol step, and never routes through the
// overlay.
const KindFlowFrame Kind = 251

// KindStreamStatus identifies the ingest listener's status frame.
const KindStreamStatus Kind = 252

// MaxFlowFrameRecords caps the records one flow frame may carry, so a
// malformed header cannot provoke a huge parse loop.
const MaxFlowFrameRecords = 1 << 16

// MaxFlowFrameArity caps the per-record attribute count a frame may
// declare (schemas are small; see schema.Schema).
const MaxFlowFrameArity = 64

// AppendFlowFrame appends one encoded flow frame to dst and returns the
// extended slice. Layout:
//
//	kind byte | seq uvarint | tag (len-prefixed) | arity u8 |
//	count uvarint | count × arity fixed-width little-endian u64s
//
// Every record must have exactly arity attributes. Reusing dst across
// calls makes the sender side allocation-free once the buffer has grown
// to the steady-state frame size.
func AppendFlowFrame(dst []byte, seq uint64, tag string, arity int, recs [][]uint64) []byte {
	dst = append(dst, byte(KindFlowFrame))
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(tag)))
	dst = append(dst, tag...)
	dst = append(dst, byte(arity))
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for _, rec := range recs {
		for _, v := range rec {
			dst = binary.LittleEndian.AppendUint64(dst, v)
		}
	}
	return dst
}

// FlowFrame is a parsed view over one encoded flow frame. Tag and the
// record payload alias the input buffer: the frame is only valid until
// the buffer is reused for the next read.
type FlowFrame struct {
	Seq   uint64
	Tag   []byte // index tag view; alias of the parsed buffer
	Arity int
	Count int
	data  []byte // record payload view, Count*Arity*8 bytes
}

// ParseFlowFrame parses an encoded flow frame without allocating: the
// returned frame's Tag and record payload point into buf.
func ParseFlowFrame(buf []byte) (FlowFrame, error) {
	var f FlowFrame
	if len(buf) == 0 || Kind(buf[0]) != KindFlowFrame {
		return f, fmt.Errorf("wire: not a flow frame")
	}
	rest := buf[1:]
	seq, n := binary.Uvarint(rest)
	if n <= 0 {
		return f, fmt.Errorf("wire: flow frame: bad seq")
	}
	rest = rest[n:]
	tagLen, n := binary.Uvarint(rest)
	if n <= 0 || tagLen > uint64(len(rest)-n) {
		return f, fmt.Errorf("wire: flow frame: bad tag length")
	}
	rest = rest[n:]
	tag := rest[:tagLen]
	rest = rest[tagLen:]
	if len(rest) < 1 {
		return f, fmt.Errorf("wire: flow frame: missing arity")
	}
	arity := int(rest[0])
	rest = rest[1:]
	if arity == 0 || arity > MaxFlowFrameArity {
		return f, fmt.Errorf("wire: flow frame: arity %d out of range", arity)
	}
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > MaxFlowFrameRecords {
		return f, fmt.Errorf("wire: flow frame: bad record count")
	}
	rest = rest[n:]
	want := int(count) * arity * 8
	if len(rest) != want {
		return f, fmt.Errorf("wire: flow frame: payload %d bytes, want %d", len(rest), want)
	}
	f.Seq = seq
	f.Tag = tag
	f.Arity = arity
	f.Count = int(count)
	f.data = rest
	return f, nil
}

// Record copies record i into dst (which must have length Arity) and
// returns it. Calling with a pooled dst keeps the parse path
// allocation-free.
func (f *FlowFrame) Record(i int, dst []uint64) []uint64 {
	off := i * f.Arity * 8
	for j := 0; j < f.Arity; j++ {
		dst[j] = binary.LittleEndian.Uint64(f.data[off+j*8:])
	}
	return dst
}

// StreamStatus is the ingest listener's answer on a streaming
// connection: cumulative per-connection admission counters, engine-wide
// ack counters, and the backpressure bit a well-behaved sender throttles
// on. Counters are cumulative so a lost status frame costs nothing.
type StreamStatus struct {
	Seq          uint64 // highest flow-frame seq processed on this connection
	Received     uint64 // records received on this connection
	Accepted     uint64 // records admitted into the ingest rings
	Dropped      uint64 // records dropped by admission control
	Acked        uint64 // engine-wide records acked end-to-end
	Failed       uint64 // engine-wide records failed or timed out
	Queued       uint64 // records currently queued in the ingest rings
	Backpressure bool   // node is falling behind; sender should slow down
}

// Kind returns KindStreamStatus.
func (m *StreamStatus) Kind() Kind { return KindStreamStatus }

func (m *StreamStatus) fields(c *codec) {
	c.Uvarint(&m.Seq)
	c.Uvarint(&m.Received)
	c.Uvarint(&m.Accepted)
	c.Uvarint(&m.Dropped)
	c.Uvarint(&m.Acked)
	c.Uvarint(&m.Failed)
	c.Uvarint(&m.Queued)
	c.Bool(&m.Backpressure)
}
