// Package wire defines the binary message format spoken between MIND
// nodes: one struct and one field walk per message. A message's
// fields(c *codec) method names its fields once, in wire order; the
// codec writes them when encoding and reads them when decoding, so the
// two directions cannot drift apart, and every length prefix passes
// through one guard (codec.count). Plain Go, no reflection. Both the
// in-process simulated transport and the TCP transport carry exactly
// these encoded messages, so every experiment exercises the real
// protocol encoding. DESIGN.md §6 lists the kinds and the primitive
// encodings.
package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"mind/internal/bitstr"
	"mind/internal/schema"
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

func (m *Batch) fields(c *codec) {
	if !c.dec {
		// Presize: the envelope body is dominated by the sub-message bytes,
		// so making room once avoids the doubling copies for large batches
		// (each length prefix asks for a full varint's room).
		total := binary.MaxVarintLen64
		for _, sub := range m.Msgs {
			total += len(sub) + binary.MaxVarintLen64
		}
		c.room(total)
	}
	slice(c, &m.Msgs, MaxBatchMsgs, func(c *codec, sub *[]byte) {
		c.Bytes(sub)
		if !c.dec || c.err != nil {
			return
		}
		if len(*sub) == 0 {
			c.fail("empty sub-message in batch")
		} else if Kind((*sub)[0]) == KindBatch {
			c.fail("nested batch")
		}
	})
}

// codec walks a message's fields in wire order, in one of two
// directions, over one cursor: encoding (dec false) writes each field at
// buf[off:], growing buf as needed, so buf[:off] is the output so far;
// decoding (dec true) reads each field from buf[off:] into the message.
// Decode errors are sticky: the first failure keeps its error and
// discards the rest of the input, so every later read comes up short and
// leaves its target alone, and Decode reports the failure once at the
// end. Encoding only reads through the pointers it is handed, so a
// message may be encoded from several goroutines at once.
type codec struct {
	buf []byte
	off int
	err error
	dec bool
	enc groupEnc // an encode's group scratch (GroupRecs), pooled with the codec
}

// maxPooledBuf bounds the capacity of buffers kept in the encode pools;
// occasional outsized messages (large batches, histogram installs) are
// left for the GC rather than pinning their memory indefinitely.
const maxPooledBuf = 64 << 10

// encoderPool recycles encoding codecs (and their backing arrays) across
// Encode calls. Encode copies the finished message into an exactly sized
// output buffer before returning the codec, so pooled state never
// escapes.
var encoderPool = sync.Pool{
	New: func() any { return &codec{buf: make([]byte, 512)} },
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

// fail records a decode's first error and discards the unread input.
func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("wire: "+format, args...)
	}
	c.off = len(c.buf)
}

// remaining returns the number of unread bytes.
func (c *codec) remaining() int { return len(c.buf) - c.off }

// room returns buf[off:], the unwritten part of an encoding's buffer,
// first growing it to hold at least n more bytes. Writing there and
// advancing off stores bytes and an integer, never a slice header — an
// append would rewrite buf's pointer on every field, a GC write barrier
// each while a mark phase runs. Small enough to inline, so an encode
// step makes no call unless the buffer grows.
func (c *codec) room(n int) []byte {
	if len(c.buf)-c.off < n {
		c.grow(n)
	}
	return c.buf[c.off:]
}

// grow reallocates an encoding's buffer with room for n more bytes,
// leaving the amortised growth to append.
func (c *codec) grow(n int) {
	c.buf = append(c.buf[:c.off], make([]byte, n)...)
	c.buf = c.buf[:cap(c.buf)]
}

// U8 walks one byte.
func (c *codec) U8(v *uint8) {
	if !c.dec {
		c.room(1)[0] = *v
		c.off++
	} else if c.off < len(c.buf) {
		*v = c.buf[c.off]
		c.off++
	} else {
		c.fail("short read (u8)")
	}
}

// Bool walks a boolean as one byte (any non-zero byte decodes true).
func (c *codec) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.U8(&b)
	if c.dec {
		*v = b != 0
	}
}

// Uvarint walks an unsigned varint.
func (c *codec) Uvarint(v *uint64) {
	if !c.dec {
		c.off += binary.PutUvarint(c.room(binary.MaxVarintLen64), *v)
		return
	}
	x, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.fail("bad uvarint")
		return
	}
	*v = x
	c.off += n
}

// U32 walks a uint32 as an unsigned varint; decoding keeps the low 32
// bits.
func (c *codec) U32(v *uint32) {
	x := uint64(*v)
	c.Uvarint(&x)
	if c.dec {
		*v = uint32(x)
	}
}

// U64 walks a fixed-width little-endian uint64 (used where varints
// would bloat high-entropy values such as digests and a trigger fire's
// ReqID).
func (c *codec) U64(v *uint64) {
	if !c.dec {
		binary.LittleEndian.PutUint64(c.room(8), *v)
		c.off += 8
	} else if c.remaining() >= 8 {
		*v = binary.LittleEndian.Uint64(c.buf[c.off:])
		c.off += 8
	} else {
		c.fail("short read (u64)")
	}
}

// count walks a length prefix (an unsigned varint): n is what encoding
// writes; decoding ignores it and returns the length it read, or 0 after
// a failure. Every length in every message passes through here, and a
// decoded one fails unless it is at most max and at most the bytes that
// remain — each element of every repeated shape encodes to at least one
// byte — so no input makes Decode allocate more than a constant
// multiple of its own size. The lengths that do not pass through here —
// a group's rows and arity, held to the density rule (readGroup) — keep
// a decoded list's values within that multiple too.
func (c *codec) count(n, max int) int {
	if !c.dec {
		// Uvarint's encode step, repeated here rather than called: a
		// length sits in front of every string, record and sub-message.
		c.off += binary.PutUvarint(c.room(binary.MaxVarintLen64), uint64(n))
		return n
	}
	var x uint64
	c.Uvarint(&x)
	if c.err == nil && (x > uint64(max) || x > uint64(c.remaining())) {
		c.fail("length %d exceeds cap %d or the %d bytes remaining", x, max, c.remaining())
	}
	if c.err != nil {
		return 0
	}
	return int(x)
}

// Bytes walks a length-prefixed byte slice (decoding copies it).
func (c *codec) Bytes(v *[]byte) {
	n := c.count(len(*v), MaxSliceLen)
	if !c.dec {
		c.off += copy(c.room(n), *v)
	} else if c.err == nil {
		*v = make([]byte, n)
		c.off += copy(*v, c.buf[c.off:])
	}
}

// String walks a length-prefixed string.
func (c *codec) String(v *string) {
	n := c.count(len(*v), MaxSliceLen)
	if !c.dec {
		c.off += copy(c.room(n), *v)
	} else if c.err == nil {
		*v = string(c.buf[c.off : c.off+n])
		c.off += n
	}
}

// Code walks a bit-string code packed as a length byte plus a fixed u64
// of left-aligned bits; decoding rejects lengths over bitstr.MaxLen and
// zeroes stray bits past the length.
func (c *codec) Code(v *bitstr.Code) {
	bits, n := v.Pack()
	c.U8(&n)
	c.U64(&bits)
	if !c.dec || c.err != nil {
		return
	}
	if n > bitstr.MaxLen {
		c.fail("code length %d exceeds max %d", n, bitstr.MaxLen)
		return
	}
	*v = bitstr.Unpack(bits, n)
}

// U64s walks a length-prefixed slice of varint values (a client's
// inserted record, a version list, one side of a rectangle, a flattened
// sketch).
func (c *codec) U64s(v *[]uint64) {
	n := c.count(len(*v), MaxSliceLen)
	if !c.dec {
		// Reserve the worst case once and fill it without a call per
		// element.
		b := c.room(n * binary.MaxVarintLen64)
		for _, x := range *v {
			b = b[binary.PutUvarint(b, x):]
		}
		c.off = len(c.buf) - len(b)
		return
	}
	if c.err == nil {
		*v = make([]uint64, n)
		c.uvarints(*v)
	}
}

// uvarints decodes len(dst) varints into dst: one loop over locals, not
// a sticky-error method call per value — a client insert's record, a
// sketch's keys and counts (records between nodes travel as groups:
// Groups).
// With ten bytes in hand (the longest varint) a value is decoded a word
// at a time: its length is the
// position of the first clear continuation bit in the next eight bytes,
// and three mask-and-shift steps squeeze those bytes' 7-bit groups
// together (bytes → 14-bit pairs → 28-bit quads → 56 bits); a ninth and
// tenth byte are added by hand. Anything else — the last bytes of the
// input, an overlong or overflowing varint — is binary.Uvarint's to
// accept or refuse, so the loop decodes exactly what Uvarint decodes.
func (c *codec) uvarints(dst []uint64) {
	const msb = 0x8080808080808080
	buf, off := c.buf, c.off
	for i := range dst {
		if len(buf)-off >= binary.MaxVarintLen64 {
			w := binary.LittleEndian.Uint64(buf[off:])
			stop := ^w & msb
			n := 8
			if stop != 0 {
				n = (bits.TrailingZeros64(stop) + 1) / 8
				w &= ^uint64(0) >> (64 - 8*uint(n))
			}
			w = w&0x007f007f007f007f | w&0x7f007f007f007f00>>1
			w = w&0x00003fff00003fff | w&0x3fff00003fff0000>>2
			w = w&0x000000000fffffff | w&0x0fffffff00000000>>4
			if stop != 0 {
				dst[i] = w
				off += n
				continue
			}
			if b := buf[off+8]; b < 0x80 {
				dst[i] = w | uint64(b)<<56
				off += 9
				continue
			} else if last := buf[off+9]; last <= 1 {
				dst[i] = w | uint64(b&0x7f)<<56 | uint64(last)<<63
				off += 10
				continue
			}
		}
		x, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			c.fail("bad uvarint")
			return
		}
		dst[i] = x
		off += n
	}
	c.off = off
}

// slice walks a length-prefixed sequence of at most max elements, each
// walked by elem.
func slice[T any](c *codec, v *[]T, max int, elem func(*codec, *T)) {
	n := c.count(len(*v), max)
	if c.dec && c.err == nil {
		*v = make([]T, n)
	}
	for i := 0; i < len(*v) && c.err == nil; i++ {
		elem(c, &(*v)[i])
	}
}

// Rect walks a query rectangle.
func (c *codec) Rect(v *schema.Rect) {
	c.U64s(&v.Lo)
	c.U64s(&v.Hi)
}

// Node walks a NodeInfo.
func (c *codec) Node(v *NodeInfo) {
	c.String(&v.Addr)
	c.Code(&v.Code)
}

// Nodes walks a sequence of NodeInfos.
func (c *codec) Nodes(v *[]NodeInfo) { slice(c, v, 1<<16, (*codec).Node) }

// Entries walks a sequence of tree identities.
func (c *codec) Entries(v *[]TreeSyncEntry) {
	slice(c, v, 1<<16, func(c *codec, e *TreeSyncEntry) {
		c.String(&e.Index)
		c.U32(&e.Version)
		c.Uvarint(&e.Epoch)
	})
}

// Sketch walks a flattened summary.Sketch's parallel slices; a decoded
// triple whose lengths disagree fails, because receivers index Counts
// and Errs by Keys position.
func (c *codec) Sketch(keys, counts, errs *[]uint64) {
	c.U64s(keys)
	c.U64s(counts)
	c.U64s(errs)
	if c.dec && (len(*counts) != len(*keys) || len(*errs) != len(*keys)) {
		c.fail("sketch slices disagree: %d keys, %d counts, %d errs",
			len(*keys), len(*counts), len(*errs))
	}
}

// Schema walks an index schema; decoding allocates it.
func (c *codec) Schema(v **schema.Schema) {
	if c.dec {
		*v = new(schema.Schema)
	}
	s := *v
	c.String(&s.Tag)
	dims := uint64(s.IndexDims)
	c.Uvarint(&dims)
	if c.dec {
		s.IndexDims = int(dims)
	}
	slice(c, &s.Attrs, 256, func(c *codec, a *schema.Attr) {
		c.String(&a.Name)
		c.U8((*uint8)(&a.Kind))
		c.U64(&a.Max)
	})
}

// IndexDef walks a full index definition.
func (c *codec) IndexDef(v *IndexDef) {
	c.Schema(&v.Schema)
	slice(c, &v.Versions, 1<<16, func(c *codec, d *VersionDef) {
		c.U32(&d.Version)
		c.Bytes(&d.Tree)
		c.Uvarint(&d.Epoch)
	})
}
