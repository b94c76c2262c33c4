// Package wire defines the binary message format spoken between MIND
// nodes: a small hand-rolled codec (varint-based, no reflection) and one
// struct per protocol message. Both the in-process simulated transport
// and the TCP transport carry exactly these encoded messages, so every
// experiment exercises the real protocol encoding.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"mind/internal/bitstr"
)

// MaxSliceLen caps decoded slice lengths to keep malformed or hostile
// input from provoking huge allocations.
const MaxSliceLen = 1 << 22

// MaxBatchMsgs caps the number of sub-messages one Batch may carry.
const MaxBatchMsgs = 1 << 16

// KindBatch frames a coalesced sequence of independently encoded
// messages travelling to the same peer. It lives outside the protocol
// kind groups (join/maintenance/data/control, client, trigger) because
// it is a transport-level envelope, not a protocol step.
const KindBatch Kind = 250

// Batch is the coalescing envelope: each element of Msgs is one fully
// framed encoded message (kind byte + payload), exactly as Encode
// produces it. Receivers unwrap and dispatch each sub-message through
// the normal decode path, so every message type batches for free.
// Batches do not nest: a sub-message whose kind byte is KindBatch fails
// decoding, which keeps hostile input from building recursion bombs.
type Batch struct {
	Msgs [][]byte
}

// Kind returns KindBatch.
func (m *Batch) Kind() Kind { return KindBatch }

func (m *Batch) encode(w *Writer) {
	// Presize: the envelope body is dominated by the sub-message bytes,
	// so one Grow avoids the append-doubling copies for large batches.
	total := 0
	for _, sub := range m.Msgs {
		total += len(sub) + binary.MaxVarintLen32
	}
	w.Grow(total + binary.MaxVarintLen32)
	w.Uvarint(uint64(len(m.Msgs)))
	for _, sub := range m.Msgs {
		w.BytesField(sub)
	}
}

func (m *Batch) decode(r *Reader) {
	n := r.Uvarint()
	if n > MaxBatchMsgs || n > uint64(r.Remaining()) {
		r.fail("batch of %d messages implausible", n)
		return
	}
	m.Msgs = make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		sub := r.BytesField()
		if r.err != nil {
			return
		}
		if len(sub) == 0 {
			r.fail("empty sub-message in batch")
			return
		}
		if Kind(sub[0]) == KindBatch {
			r.fail("nested batch")
			return
		}
		m.Msgs = append(m.Msgs, sub)
	}
}

func init() { clientKindNames[KindBatch] = "batch" }

func newBatchMessage(k Kind) Message {
	if k == KindBatch {
		return &Batch{}
	}
	return nil
}

// Writer accumulates an encoded message.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with a small preallocated buffer.
func NewWriter() *Writer { return &Writer{buf: make([]byte, 0, 128)} }

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Grow ensures at least n more bytes of capacity, so a sequence of
// appends totalling n proceeds without reallocating.
func (w *Writer) Grow(n int) {
	if cap(w.buf)-len(w.buf) >= n {
		return
	}
	grown := make([]byte, len(w.buf), len(w.buf)+n)
	copy(grown, w.buf)
	w.buf = grown
}

// maxPooledBuf bounds the capacity of buffers kept in the encode pools;
// occasional outsized messages (large batches, histogram installs) are
// left for the GC rather than pinning their memory indefinitely.
const maxPooledBuf = 64 << 10

// writerPool recycles Writers (and their backing arrays) across Encode
// calls. Encode copies the finished message into an exactly sized output
// buffer before returning the Writer, so pooled state never escapes.
var writerPool = sync.Pool{
	New: func() any { return &Writer{buf: make([]byte, 0, 512)} },
}

// bufPool recycles the exactly sized output buffers that Encode returns.
// Stored as *[]byte to avoid an allocation per Put (a plain []byte would
// be boxed into an interface on every call).
var bufPool sync.Pool

// getBuf returns a zero-length buffer with capacity at least n, reusing
// a recycled output buffer when one is large enough.
func getBuf(n int) []byte {
	if v := bufPool.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:0]
		}
		// Too small for this message: leave it to the GC. Putting it back
		// would park it in the pool's per-P fast slot, where the next Get
		// finds it again — one small buffer (an ack recycled last after an
		// envelope) then makes every larger Encode on that P allocate.
	}
	return make([]byte, 0, n)
}

// RecycleBuf returns a buffer obtained from Encode to the pool. Callers
// must not touch the buffer afterwards. Recycling is strictly optional —
// buffers that are retained (replica payloads, ring-recovery state) are
// simply never recycled — but transports that consume the bytes
// synchronously (simnet copies inside Send; tcpnet copies into its
// per-peer send queue before returning) can recycle immediately after
// Send returns, which removes the dominant per-message allocation from
// the hot path.
func RecycleBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

// getWriter returns a pooled Writer with an empty buffer.
func getWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.buf = w.buf[:0]
	return w
}

// putWriter returns a Writer to the pool unless its buffer has grown
// past the pooling bound.
func putWriter(w *Writer) {
	if cap(w.buf) > maxPooledBuf {
		return
	}
	writerPool.Put(w)
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// U64 appends a fixed-width little-endian uint64 (used where varints
// would bloat high-entropy values such as histogram bits).
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// F64 appends a float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes appends a length-prefixed byte slice.
func (w *Writer) BytesField(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Code appends a bit-string code.
func (w *Writer) Code(c bitstr.Code) {
	b, n := c.Pack()
	w.U8(n)
	w.U64(b)
}

// U64Slice appends a length-prefixed slice of varint values.
func (w *Writer) U64Slice(vs []uint64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Uvarint(v)
	}
}

// Reader decodes an encoded message with a sticky error: after the first
// failure every subsequent read returns zero values, and Err reports the
// failure once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps an encoded buffer.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Finish returns an error if decoding failed or bytes remain.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("short read (u8)")
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// U64 reads a fixed-width uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("short read (u64)")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// BytesField reads a length-prefixed byte slice (copied).
func (r *Reader) BytesField() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxSliceLen || int(n) > r.Remaining() {
		r.fail("bytes length %d exceeds remaining %d", n, r.Remaining())
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += int(n)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > MaxSliceLen || int(n) > r.Remaining() {
		r.fail("string length %d exceeds remaining %d", n, r.Remaining())
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Code reads a bit-string code.
func (r *Reader) Code() bitstr.Code {
	n := r.U8()
	b := r.U64()
	if r.err != nil {
		return bitstr.Empty
	}
	if n > bitstr.MaxLen {
		r.fail("code length %d exceeds max %d", n, bitstr.MaxLen)
		return bitstr.Empty
	}
	return bitstr.Unpack(b, n)
}

// U64Slice reads a length-prefixed slice of varint values.
func (r *Reader) U64Slice() []uint64 {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxSliceLen || int(n) > r.Remaining() {
		r.fail("slice length %d implausible", n)
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uvarint()
	}
	if r.err != nil {
		return nil
	}
	return out
}
