package wire

import (
	"encoding/binary"
	"math"
	"math/bits"

	"mind/internal/schema"
)

// Query answers (query-resp, client-query-resp) carry their records as
// groups: a record count, then groups whose row counts sum to it, each
//
//	rows (one byte, 1–32) | arity (uvarint) |
//	per column: reference (uvarint), width | shift<<7 (uvarint) |
//	the rows' offsets, ⌈rows·Σwidth/8⌉ bytes
//
// — the frame-of-reference layout the store packs its leaves and blocks
// in (schema.FramesOf, schema.PackRun): value = reference + offset<<shift,
// the offsets bit-packed column after column, least significant bit
// first. A responder packs each store batch's selection straight into
// one group; the originator checks a group by its header alone and
// splices it on as bytes; only the final consumer decodes it. The header
// is the whole check, because it bounds every value the offsets can
// spell: width ≤ 64, shift + width ≤ 64, and reference + the largest
// offset its width holds, shifted, below 2⁶⁴ (an encoder lowers a
// reference that would pass it, fit). A group also decodes to at most
// four words per byte it takes — rows·(arity+3) ≤ 4·bytes, a record's
// values plus its 3-word slice header — so a decode allocates at most 32
// bytes per input byte; an encoder splits a group that would be denser.
// DESIGN.md §6 "The group rule".

// MaxGroupRows is the most rows one group holds: a store leaf's.
const MaxGroupRows = 32

// stackCols and stackWords size the stack buffers a decode keeps a
// group's column readers and offset words in: arity 8, and 32 rows of
// 120 bits (the spare word included); a larger group allocates them once
// per decode.
const (
	stackCols  = 8
	stackWords = 64
)

// gatherWords sizes the stack buffer an encode from records gathers a
// group's rows in: 32 rows of arity 8; wider records allocate.
const gatherWords = 256

// fit lowers f's reference, when it must, so that the largest offset
// its width holds lands below 2⁶⁴: the decoder checks that from the
// header alone. The new reference is the largest value at or under the
// bound that agrees with the old one below the shift, so every row's
// offset still fits the width (the maximum is at most 2⁶⁴-1).
func fit(f schema.Frame) schema.Frame {
	span := (uint64(1)<<f.Width - 1) << f.Shift
	if low := math.MaxUint64 - span; f.Ref > low {
		f.Ref = low - (low-f.Ref)&(1<<f.Shift-1)
	}
	return f
}

// groupEnc packs groups: its frames and offset words are scratch kept
// from one group to the next, so a group costs no allocation once they
// have grown.
type groupEnc struct {
	frames []schema.Frame
	words  []uint64
}

// frame frames the rows of rows (stride arity) at the word offsets sel
// lists, 1 to 32 of them, as one group and returns its byte length, or
// ok false when the group would break the density rule (a single row
// never does).
func (e *groupEnc) frame(rows []uint64, sel []int32, arity int) (size int, ok bool) {
	if cap(e.frames) < arity {
		e.frames = make([]schema.Frame, 0, arity)
	}
	e.frames = schema.FramesOf(e.frames[:0], rows, sel, arity)
	size = 1 + uvarintLen(uint64(arity))
	for c, f := range e.frames {
		f = fit(f)
		e.frames[c] = f
		size += uvarintLen(f.Ref) + uvarintLen(uint64(f.Width|f.Shift<<7))
	}
	size += (schema.PackedBits(len(sel), e.frames) + 7) / 8
	return size, len(sel) == 1 || len(sel)*(arity+3) <= 4*size
}

// put writes the group frame just framed, of size bytes, at the front of
// b, which has eight bytes of room past it: the offsets are copied a
// word at a time.
func (e *groupEnc) put(b []byte, rows []uint64, sel []int32, arity, size int) {
	b[0] = byte(len(sel))
	p := 1 + binary.PutUvarint(b[1:], uint64(arity))
	for _, f := range e.frames {
		p += binary.PutUvarint(b[p:], f.Ref)
		p += binary.PutUvarint(b[p:], uint64(f.Width|f.Shift<<7))
	}
	var wbuf [8]uint64 // a narrow answer's groups need no more
	words, n := wbuf[:], (size-p+7)/8
	if n > len(words) {
		if cap(e.words) < n {
			e.words = make([]uint64, max(n, 2*cap(e.words)))
		}
		words = e.words
	}
	schema.PackRun(words, rows, sel, arity, e.frames)
	for i := range n {
		binary.LittleEndian.PutUint64(b[p+8*i:], words[i])
	}
}

// uvarintLen is the byte length of v as a uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// groupHead is one group's header: its rows and arity, the byte its
// offsets start at and its length, both from its row-count byte.
type groupHead struct {
	rows, arity int
	body, size  int
}

// readGroup reads and checks the header of the group at the front of b,
// in O(arity) and without reading an offset. why names the first rule
// the group breaks, or is empty.
func readGroup(b []byte) (h groupHead, why string) {
	if len(b) == 0 {
		return h, "short group"
	}
	if h.rows = int(b[0]); h.rows == 0 || h.rows > MaxGroupRows {
		return h, "group row count outside 1–32"
	}
	k, n := binary.Uvarint(b[1:])
	p := 1 + n
	switch {
	case n <= 0:
		return h, "bad group arity"
	case k > uint64(len(b)-p)/2: // a column's header takes at least two bytes
		return h, "group arity past the input"
	}
	h.arity = int(k)
	nbits := 0
	for range h.arity {
		ref, n := binary.Uvarint(b[p:])
		if n <= 0 {
			return h, "bad column reference"
		}
		p += n
		sw, n := binary.Uvarint(b[p:])
		if n <= 0 {
			return h, "bad column shift and width"
		}
		p += n
		width, shift := uint(sw&127), sw>>7
		switch {
		case width > 64:
			return h, "column width over 64"
		case shift > 64-uint64(width):
			return h, "column shift + width over 64"
		case ref > math.MaxUint64-(uint64(1)<<width-1)<<shift:
			return h, "column reference + largest offset past 2^64"
		}
		nbits += h.rows * int(width)
	}
	h.body, h.size = p, p+(nbits+7)/8
	switch {
	case h.size > len(b):
		return h, "group offsets past the input"
	case h.rows*(h.arity+3) > 4*h.size:
		return h, "group decodes to over 4 words a byte"
	}
	return h, ""
}

// loadWords loads b's bytes little-endian into words, reallocated only
// if too small, with one zero word to spare (Unpack reads the word after
// the one an offset starts in).
func loadWords(words []uint64, b []byte) []uint64 {
	n := len(b)/8 + 2
	if cap(words) < n {
		words = make([]uint64, n)
	}
	words = words[:n]
	i := 0
	for ; i+8 <= len(b); i += 8 {
		words[i/8] = binary.LittleEndian.Uint64(b[i:])
	}
	var w uint64
	for j := len(b) - 1; j >= i; j-- {
		w = w<<8 | uint64(b[j])
	}
	words[i/8], words[n-1] = w, 0
	return words
}

// groupCols walks the header of the checked group at the front of b
// once and returns it with a reader per column, appended to cols, which
// is reallocated only if it has too little room.
func groupCols(b []byte, cols []schema.Column) (h groupHead, _ []schema.Column) {
	k, n := binary.Uvarint(b[1:])
	h.rows, h.arity = int(b[0]), int(k)
	if cap(cols) < h.arity {
		cols = make([]schema.Column, 0, h.arity) // once, at its size: a column costs at least two input bytes
	}
	p, start := 1+n, uint(0)
	for range h.arity {
		ref, n := binary.Uvarint(b[p:])
		p += n
		sw, n := binary.Uvarint(b[p:])
		p += n
		col := schema.NewColumn(ref, uint(sw>>7), uint(sw&127), start)
		cols = append(cols, col)
		start += uint(h.rows) * col.Width
	}
	h.body, h.size = p, p+int(start+7)/8
	return h, cols
}

// decodeGroup decodes the group at the front of b, whose header and
// column readers groupCols returned, into out (h.rows × h.arity words),
// a column at a time; words is scratch, returned grown if it had to be.
func decodeGroup(b []byte, h groupHead, cols []schema.Column, words, out []uint64) []uint64 {
	words = loadWords(words, b[h.body:h.size])
	for c := range cols {
		schema.DecodeColumn(out, cols, c, words, 0)
	}
	return words
}

// DecodeGroup decodes the group at the front of b — a checked list's run
// at a group boundary — into dst, resized to its rows × arity words, and
// returns the rows, their number and the group's byte length. dst is
// reallocated only if too small, and then with room for a full group of
// the arity, so a scratch handed back in is reallocated once.
func DecodeGroup(b []byte, dst []uint64) (rows []uint64, n, size int) {
	var cbuf [stackCols]schema.Column
	var wbuf [stackWords]uint64
	h, cols := groupCols(b, cbuf[:0])
	if k := h.rows * h.arity; cap(dst) < k {
		dst = make([]uint64, k, MaxGroupRows*h.arity)
	} else {
		dst = dst[:k]
	}
	decodeGroup(b, h, cols, wbuf[:], dst)
	return dst, h.rows, h.size
}

// Groups is a record list in groups, in its wire form: a record count
// and the byte runs that, concatenated, are its groups. A responder
// packs its store batches into one (AppendRows), an originator splices
// the groups it admitted into one (SpliceList, or Splice a run of groups
// at a time), and only the final consumer decodes it (Records).
//
// A decoded Groups is one run that aliases the frame it was decoded
// from, checked group by group but not copied: a frame must not be
// reused while a list decoded from it lives (RecList says why every
// path a query-resp arrives by is safe). Spliced and decoded runs are
// capped, so appending to the list never writes into the frame behind
// them. A Groups has one owner: copies of one share runs.
type Groups struct {
	n    int
	runs [][]byte
	enc  groupEnc // AppendRows' scratch
}

// Len returns the number of records in the list.
func (l Groups) Len() int { return l.n }

// Runs returns the list's byte runs; each holds whole groups, so
// DecodeGroup walks it from its start. The runs are read-only.
func (l Groups) Runs() [][]byte { return l.runs }

// AppendRows packs the rows of a store batch (rows of stride arity, sel
// their word offsets, store.Sharded.VisitBatches' contract) onto the end
// of the list, 32 to a group, straight from rows: nothing is gathered.
func (l *Groups) AppendRows(rows []uint64, sel []int32, arity int) {
	for len(sel) > 0 {
		m := min(len(sel), MaxGroupRows)
		l.appendGroup(rows, sel[:m], arity)
		sel = sel[m:]
	}
}

// appendGroup packs the rows sel lists, 1 to 32, as one group, or as
// the groups its halves make when one would break the density rule.
func (l *Groups) appendGroup(rows []uint64, sel []int32, arity int) {
	size, ok := l.enc.frame(rows, sel, arity)
	if !ok {
		l.appendGroup(rows, sel[:len(sel)/2], arity)
		l.appendGroup(rows, sel[len(sel)/2:], arity)
		return
	}
	var run []byte
	l.runs, run = openRun(l.runs, size+8)
	l.enc.put(run[len(run):cap(run)], rows, sel, arity, size)
	l.runs[len(l.runs)-1] = run[:len(run)+size]
	l.n += len(sel)
}

// Append packs recs onto the end of the list: each stretch of records of
// one arity, 32 at a time, into one group.
func (l *Groups) Append(recs ...schema.Record) {
	var rbuf [gatherWords]uint64
	var sbuf [MaxGroupRows]int32
	for len(recs) > 0 {
		rows, sel, arity, rest := gatherGroup(recs, rbuf[:0], sbuf[:0])
		l.AppendRows(rows, sel, arity)
		recs = rest
	}
}

// gatherGroup appends the leading records of recs that one group takes —
// at most 32, of one arity — to rows (stride arity) and their word
// offsets to sel, and returns both, the arity and the records after
// them.
func gatherGroup(recs []schema.Record, rows []uint64, sel []int32) ([]uint64, []int32, int, []schema.Record) {
	k := len(recs[0])
	i := 0
	for ; i < min(len(recs), MaxGroupRows) && len(recs[i]) == k; i++ {
		sel = append(sel, int32(len(rows)))
		rows = append(rows, recs[i]...)
	}
	return rows, sel, k, recs[i:]
}

// Splice appends run, n records' whole groups cut from a decoded list's
// runs at group boundaries, without copying it: the list aliases run
// from then on.
func (l *Groups) Splice(run []byte, n int) {
	if n > 0 {
		l.n += n
		l.runs = append(l.runs, run[:len(run):len(run)])
	}
}

// SpliceList appends every group of o, run by run, without copying or
// walking them: the list aliases o's runs from then on.
func (l *Groups) SpliceList(o Groups) {
	l.n += o.n
	for _, run := range o.runs {
		l.runs = append(l.runs, run[:len(run):len(run)])
	}
}

// Records decodes the list, each group once. Every record is a capped
// read-only view arena[b:b+k:b+k] of one arena sized to the list's
// values (the store's view contract: a retained record pins the arena,
// an append reallocates instead of running into the next record). An
// empty list decodes to nil; a zero-arity record to an empty non-nil
// record.
func (l Groups) Records() []schema.Record {
	values := 0
	for _, run := range l.runs {
		for off := 0; off < len(run); {
			h, _ := readGroup(run[off:])
			values += h.rows * h.arity
			off += h.size
		}
	}
	return l.records(values)
}

// records is Records with the list's value count known.
func (l Groups) records(values int) []schema.Record {
	if l.n == 0 {
		return nil
	}
	recs := make([]schema.Record, 0, l.n)
	arena := make([]uint64, values)
	var cbuf [stackCols]schema.Column
	var wbuf [stackWords]uint64
	cols, words := cbuf[:0], wbuf[:]
	for _, run := range l.runs {
		for off := 0; off < len(run); {
			var h groupHead
			h, cols = groupCols(run[off:], cols[:0])
			k := h.arity
			out := arena[:h.rows*k]
			words = decodeGroup(run[off:], h, cols, words, out)
			for r := range h.rows {
				recs = append(recs, out[r*k:(r+1)*k:(r+1)*k])
			}
			arena = arena[len(out):]
			off += h.size
		}
	}
	return recs
}

// Groups walks a group list: encoding copies the runs; decoding checks
// every group by its header and keeps the bytes where they are (see
// Groups).
func (c *codec) Groups(l *Groups) {
	n := c.count(l.n, MaxSliceLen)
	if !c.dec {
		total := 0
		for _, run := range l.runs {
			total += len(run)
		}
		b := c.room(total)
		for _, run := range l.runs {
			b = b[copy(b, run):]
		}
		c.off += total
		return
	}
	if run, _ := c.groupRun(n); c.err == nil && n > 0 {
		*l = Groups{n: n, runs: [][]byte{run}}
	}
}

// GroupRecs walks decoded records in group form: encoding packs each
// stretch of one arity, 32 records at a time, into a group, byte for
// byte what a Groups built by Append writes; decoding checks the groups
// and decodes them (Groups.Records).
func (c *codec) GroupRecs(v *[]schema.Record) {
	n := c.count(len(*v), MaxSliceLen)
	if !c.dec {
		var rbuf [gatherWords]uint64
		var sbuf [MaxGroupRows]int32
		for recs := *v; len(recs) > 0; {
			var rows []uint64
			var sel []int32
			var arity int
			rows, sel, arity, recs = gatherGroup(recs, rbuf[:0], sbuf[:0])
			c.putGroup(rows, sel, arity)
		}
		return
	}
	if run, values := c.groupRun(n); c.err == nil {
		*v = Groups{n: n, runs: [][]byte{run}}.records(values)
	}
}

// putGroup encodes the rows sel lists, 1 to 32, as one group, or as the
// groups its halves make when one would break the density rule
// (Groups.appendGroup), with the codec's pooled scratch.
func (c *codec) putGroup(rows []uint64, sel []int32, arity int) {
	size, ok := c.enc.frame(rows, sel, arity)
	if !ok {
		c.putGroup(rows, sel[:len(sel)/2], arity)
		c.putGroup(rows, sel[len(sel)/2:], arity)
		return
	}
	c.enc.put(c.room(size+8), rows, sel, arity, size)
	c.off += size
}

// groupRun checks groups at the decode cursor, by their headers, until
// they hold n records, and returns their bytes, capped, without copying
// them, and the values they hold.
func (c *codec) groupRun(n int) (run []byte, values int) {
	start := c.off
	for left := n; left > 0 && c.err == nil; {
		h, why := readGroup(c.buf[c.off:])
		switch {
		case why != "":
			c.fail("%s", why)
		case h.rows > left:
			c.fail("group of %d rows past the %d records the count leaves", h.rows, left)
		default:
			left -= h.rows
			values += h.rows * h.arity
			c.off += h.size
		}
	}
	return c.buf[start:c.off:c.off], values
}
