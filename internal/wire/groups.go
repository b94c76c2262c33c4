package wire

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"

	"mind/internal/schema"
)

// Every record list between nodes — query answers (query-resp,
// client-query-resp) and the write path's runs (insert, replicate,
// insert-ack) — is in groups: a record count, then groups whose row
// counts sum to it, each
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
// splices it on as bytes; only the final consumer decodes it. A
// write-path hop decodes each group of a run once and re-packs its rows
// by next hop. The header
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
// group's column readers and, for a group it cannot read in place, its
// offset bytes in (8·stackWords of them): arity 16 — an insert run's row
// of a 12-value record — and 32 rows of 252 bits with 16 bytes to spare;
// a larger group allocates them once per decode.
const (
	stackCols  = 16
	stackWords = 128
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
// lists, 1 to 32 of them, as one group, and returns the byte lengths of
// its header and of its offsets (fitFrames).
func (e *groupEnc) frame(rows []uint64, sel []int32, arity int) (head, body int) {
	if cap(e.frames) < arity {
		e.frames = make([]schema.Frame, 0, arity)
	}
	e.frames = schema.FramesOf(e.frames[:0], rows, sel, arity)
	head, body, _ = e.fitFrames(len(sel), arity)
	return head, body
}

// fitFrames fits every frame of e.frames (fit), the frames of a group of
// n rows of the arity, and returns the byte lengths of the group's
// header and of its offsets, and whether fit moved a reference.
func (e *groupEnc) fitFrames(n, arity int) (head, body int, moved bool) {
	head = 1 + uvarintLen(uint64(arity))
	for c, f := range e.frames {
		if g := fit(f); g != f {
			e.frames[c], f, moved = g, g, true
		}
		head += uvarintLen(f.Ref) + uvarintLen(uint64(f.Width|f.Shift<<7))
	}
	return head, (schema.PackedBits(n, e.frames) + 7) / 8, moved
}

// dense reports whether a group of n rows of the arity and size bytes
// keeps the density rule (a single row always does).
func dense(n, arity, size int) bool { return n == 1 || n*(arity+3) <= 4*size }

// putHead writes the header of a group of n rows framed by e.frames at
// the front of b and returns its length.
func (e *groupEnc) putHead(b []byte, n, arity int) int {
	b[0] = byte(n)
	p := 1 + binary.PutUvarint(b[1:], uint64(arity))
	for _, f := range e.frames {
		p += binary.PutUvarint(b[p:], f.Ref)
		p += binary.PutUvarint(b[p:], uint64(f.Width|f.Shift<<7))
	}
	return p
}

// put writes the group just framed (frame) of the rows sel lists, of
// size bytes, at the front of b, which has eight bytes of room past it:
// the offsets are copied a word at a time.
func (e *groupEnc) put(b []byte, rows []uint64, sel []int32, arity, size int) {
	p := e.putHead(b, len(sel), arity)
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

// putBatch writes the group of a batch's selection just framed
// (Batch.Frames, fitFrames) at the front of b, which has eight bytes of
// room past it: the offsets are packed from the run as it rests
// (Batch.Pack).
func (e *groupEnc) putBatch(b []byte, bt *schema.Batch) {
	bt.Pack(b[e.putHead(b, bt.Len(), bt.Arity()):], e.frames)
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
// in O(arity) and without reading an offset, and, when cols is not nil,
// appends a reader per column to cols in the same walk and returns it
// (reallocated, empty, at the group's arity when it has too little
// room). why names the first rule the group breaks, or is empty.
func readGroup(b []byte, cols []schema.Column) (h groupHead, _ []schema.Column, why string) {
	if len(b) == 0 {
		return h, cols, "short group"
	}
	if h.rows = int(b[0]); h.rows == 0 || h.rows > MaxGroupRows {
		return h, cols, "group row count outside 1–32"
	}
	k, n := binary.Uvarint(b[1:])
	p := 1 + n
	switch {
	case n <= 0:
		return h, cols, "bad group arity"
	case k > uint64(len(b)-p)/2: // a column's header takes at least two bytes
		return h, cols, "group arity past the input"
	}
	h.arity = int(k)
	if cols != nil && cap(cols)-len(cols) < h.arity {
		cols = make([]schema.Column, 0, h.arity) // once, at its size: a column costs at least two input bytes
	}
	nbits := 0
	for range h.arity {
		ref, n := binary.Uvarint(b[p:])
		if n <= 0 {
			return h, cols, "bad column reference"
		}
		p += n
		sw, n := binary.Uvarint(b[p:])
		if n <= 0 {
			return h, cols, "bad column shift and width"
		}
		p += n
		width, shift := uint(sw&127), sw>>7
		switch {
		case width > 64:
			return h, cols, "column width over 64"
		case shift > 64-uint64(width):
			return h, cols, "column shift + width over 64"
		case ref > math.MaxUint64-(uint64(1)<<width-1)<<shift:
			return h, cols, "column reference + largest offset past 2^64"
		}
		if cols != nil {
			cols = append(cols, schema.NewColumn(ref, uint(shift), width, uint(nbits)))
		}
		nbits += h.rows * int(width)
	}
	h.body, h.size = p, p+(nbits+7)/8
	switch {
	case h.size > len(b):
		return h, cols, "group offsets past the input"
	case h.rows*(h.arity+3) > 4*h.size:
		return h, cols, "group decodes to over 4 words a byte"
	}
	return h, cols, ""
}

// unpackBytes is schema.Unpack over offsets read in place from b, the
// bytes of a group's offsets and 16 more: column col of the group's rows
// into out[0], out[arity] and on. An offset is read by one unaligned
// little-endian load at the byte it starts in, which holds all of it up
// to a width of 57 bits; a wider one takes a second load.
func unpackBytes(out []uint64, arity int, b []byte, col schema.Column) {
	ref, mask, scale, width := col.Ref, col.Mask, col.Scale, col.Width
	switch {
	case width == 0:
		for i := 0; i < len(out); i += arity {
			out[i] = ref
		}
	case width > 57:
		for i, pos := 0, col.Start; i < len(out); i, pos = i+arity, pos+width {
			k, s := pos>>3, pos&7
			out[i] = ref + (binary.LittleEndian.Uint64(b[k:])>>s|binary.LittleEndian.Uint64(b[k+8:])<<(64-s))&mask*scale
		}
	case scale == 1:
		for i, pos := 0, col.Start; i < len(out); i, pos = i+arity, pos+width {
			out[i] = ref + binary.LittleEndian.Uint64(b[pos>>3:])>>(pos&7)&mask
		}
	default:
		for i, pos := 0, col.Start; i < len(out); i, pos = i+arity, pos+width {
			out[i] = ref + binary.LittleEndian.Uint64(b[pos>>3:])>>(pos&7)&mask*scale
		}
	}
}

// decodeGroup decodes the checked group at the front of b, whose header
// and column readers readGroup returned, into out (h.rows × h.arity
// words), a column at a time. Its offsets are read where they are when
// b holds 16 bytes past them (the bytes past the group are masked away);
// only a group that ends less than 16 bytes before its input does is
// copied first, zero-padded (decodeTail).
func decodeGroup(b []byte, h groupHead, cols []schema.Column, out []uint64) {
	if len(b) < h.size+16 {
		decodeTail(b[h.body:h.size], cols, out)
		return
	}
	for c, col := range cols {
		unpackBytes(out[c:], len(cols), b[h.body:], col)
	}
}

// decodeTail is decodeGroup over a copy of the group's offset bytes.
func decodeTail(body []byte, cols []schema.Column, out []uint64) {
	var buf [8 * stackWords]byte
	padded := buf[:]
	if need := len(body) + 16; need > len(padded) {
		padded = make([]byte, need)
	}
	copy(padded, body)
	for c, col := range cols {
		unpackBytes(out[c:], len(cols), padded, col)
	}
}

// DecodeGroup decodes the group at the front of b — a checked list's run
// at a group boundary — into dst, resized to its rows × arity words, and
// returns the rows, their number and the group's byte length. dst is
// reallocated only if too small, and then with room for a full group of
// the arity, so a scratch handed back in is reallocated once.
func DecodeGroup(b []byte, dst []uint64) (rows []uint64, n, size int) {
	var cbuf [stackCols]schema.Column
	h, cols, _ := readGroup(b, cbuf[:0])
	if k := h.rows * h.arity; cap(dst) < k {
		dst = make([]uint64, k, MaxGroupRows*h.arity)
	} else {
		dst = dst[:k]
	}
	decodeGroup(b, h, cols, dst)
	return dst, h.rows, h.size
}

// Groups is a record list in groups, in its wire form: a record count
// and the byte runs that, concatenated, are its groups. Every record list
// between nodes is one: a query answer's records, and a write-path run's
// rows (an insert run's, a replicate run's, an ack run's). A responder
// packs its store batches into one (AppendBatch, AppendRows), an
// originator splices the groups it admitted into one (SpliceList, or
// Splice a run of groups at a time), a write-path hop adds rows one at a
// time (AppendRow), and only the final consumer decodes it (Records,
// EachRow).
//
// A batch whose own group would be mostly header — a narrow answer's
// record or two, a window's edge in a wide one, a routed record — does
// not get one: its rows join the list's open group, which copies such
// rows, up to 32, and is framed when it closes: when it is full, or when
// the list is read or encoded, or a splice goes on after it. Its records
// follow those of the groups packed while it was open. The list keeps no
// packing scratch of its own: a call that frames a group borrows it
// (encPool).
//
// A decoded Groups is one run that aliases the frame it was decoded
// from, checked group by group but not copied: a frame must not be
// reused while a list decoded from it lives. Every path a message
// arrives by hands Decode a buffer of its own — tcpnet reads each frame
// into a fresh one, simnet copies in Send, and a batch's sub-messages
// are copies made when the batch decodes; the one caller that reuses its
// read buffer, the ingest client, keeps only stream-status frames.
// Spliced and decoded runs are capped, so appending to the list never
// writes into the frame behind them. A Groups has one owner: copies of
// one share runs and the open group's rows, so a list is closed before
// it is handed on.
type Groups struct {
	n    int // the records in runs
	runs [][]byte
	// The open group: its rows (stride openK), copied in, and their
	// number.
	open         []uint64
	openN, openK int
}

// encPool lends a call that frames groups its scratch (groupEnc): the
// frames and offset words are used only within the call.
var encPool = sync.Pool{New: func() any { return new(groupEnc) }}

// Len returns the number of records in the list.
func (l Groups) Len() int { return l.n + l.openN }

// Runs returns the list's byte runs, the open group closed first; each
// holds whole groups, so DecodeGroup walks it from its start. The runs
// are read-only.
func (l *Groups) Runs() [][]byte {
	l.Close()
	return l.runs
}

// openRun returns runs with a last run that has room for n more bytes,
// and that run. When the last run has too little it opens a new one of
// twice its capacity, or of n bytes when that is more, instead of
// growing it: a responder's list grows a batch at a time to tens of
// kilobytes in a few runs, and no byte is ever copied. The first run
// holds n rounded up to a power of two: what a narrow answer or a short
// run needs, in a few size classes whatever its groups' sizes: runs of
// every size would scatter over many classes and keep in use the spans
// they share with long-lived data (EXPERIMENTS.md, "One record codec on
// the wire").
func openRun(runs [][]byte, n int) ([][]byte, []byte) {
	size := 1 << bits.Len(uint(n-1))
	if len(runs) > 0 {
		run := runs[len(runs)-1]
		if cap(run)-len(run) >= n {
			return runs, run
		}
		size = max(n, 2*cap(run))
	}
	runs = append(runs, make([]byte, 0, size))
	return runs, runs[len(runs)-1]
}

// AppendRows packs the rows of a store batch (rows of stride arity, sel
// their word offsets) onto the end of the list, 32 to a group, straight
// from rows: nothing is gathered but the rows a small group would hold,
// which join the open group instead.
func (l *Groups) AppendRows(rows []uint64, sel []int32, arity int) {
	e := encPool.Get().(*groupEnc)
	for len(sel) > 0 {
		m := min(len(sel), MaxGroupRows)
		l.appendGroup(e, rows, sel[:m], arity)
		sel = sel[m:]
	}
	encPool.Put(e)
}

// AppendBatch packs a store batch's selection onto the end of the list
// as one group at the frames of the run it rests in (schema.Batch's
// Frames and Pack): nothing it packs is decoded. A batch whose group
// would be mostly header is decoded into the open group; a batch of
// plain rows (a tail's), or one whose frames a group cannot carry as
// they are (a reference fit must lower, a group the density rule
// splits), is decoded and packed as AppendRows packs.
func (l *Groups) AppendBatch(b *schema.Batch) {
	n, arity := b.Len(), b.Arity()
	// Every column's header takes two bytes or more, and no offset is
	// wider than the run keeps it: a batch whose offsets fill fewer bytes
	// than that is small without being framed.
	small := b.Packed() && (n*b.RowBits()+7)/8 < 2+2*arity
	if b.Packed() && !small {
		e := encPool.Get().(*groupEnc)
		if cap(e.frames) < arity {
			e.frames = make([]schema.Frame, 0, arity)
		}
		e.frames = b.Frames(e.frames[:0])
		head, body, moved := e.fitFrames(n, arity)
		if !moved && head <= body && dense(n, arity, head+body) {
			size := head + body
			var run []byte
			l.runs, run = openRun(l.runs, size+8)
			e.putBatch(run[len(run):cap(run)], b)
			l.runs[len(l.runs)-1] = run[:len(run)+size]
			l.n += n
			encPool.Put(e)
			return
		}
		encPool.Put(e)
		small = !moved && head > body
	}
	rows, sel := b.Rows()
	if small {
		l.hold(rows, sel, arity)
	} else {
		l.AppendRows(rows, sel, arity)
	}
}

// appendGroup packs the rows sel lists, 1 to 32, as one group, or into
// the open group when their own would be mostly header.
func (l *Groups) appendGroup(e *groupEnc, rows []uint64, sel []int32, arity int) {
	if head, body := e.frame(rows, sel, arity); head > body {
		l.hold(rows, sel, arity)
		return
	}
	l.put(e, rows, sel, arity)
}

// hold adds the rows sel lists to the open group (AppendRow).
func (l *Groups) hold(rows []uint64, sel []int32, arity int) {
	for _, o := range sel {
		l.AppendRow(rows[o : int(o)+arity])
	}
}

// openRows is the rows the open group first makes room for: a narrow
// answer's or a short run's. One that outgrows them gets room for a
// full group, so the open group allocates at most twice.
const openRows = 4

// AppendRow adds one row to the list's open group, copying it: a row
// framed alone would be mostly header. The open group closes first when
// it holds rows of another arity, and whenever it fills.
func (l *Groups) AppendRow(row []uint64) {
	if l.openN > 0 && l.openK != len(row) {
		l.Close()
	}
	l.openK = len(row)
	if cap(l.open)-len(l.open) < len(row) {
		rows := openRows
		if cap(l.open) > 0 {
			rows = MaxGroupRows
		}
		l.open = append(make([]uint64, 0, rows*len(row)), l.open...)
	}
	l.open = append(l.open, row...)
	if l.openN++; l.openN == MaxGroupRows {
		l.Close()
	}
}

// Close frames and packs the open group's rows, if it holds any. A list
// closes itself before it is read, encoded or spliced onto; a responder
// closes its answer before handing it on, so that copies of the list
// share only whole groups.
func (l *Groups) Close() {
	if l.openN == 0 {
		return
	}
	var sbuf [MaxGroupRows]int32
	sel := sbuf[:l.openN]
	for i := range sel {
		sel[i] = int32(i * l.openK)
	}
	e := encPool.Get().(*groupEnc)
	e.frame(l.open, sel, l.openK)
	l.put(e, l.open, sel, l.openK)
	encPool.Put(e)
	l.open, l.openN = l.open[:0], 0
}

// put packs the rows sel lists, 1 to 32, framed just now (frame), as one
// group, or as the groups its halves make when one would break the
// density rule.
func (l *Groups) put(e *groupEnc, rows []uint64, sel []int32, arity int) {
	head, body, _ := e.fitFrames(len(sel), arity)
	size := head + body
	if !dense(len(sel), arity, size) {
		h := len(sel) / 2
		e.frame(rows, sel[:h], arity)
		l.put(e, rows, sel[:h], arity)
		e.frame(rows, sel[h:], arity)
		l.put(e, rows, sel[h:], arity)
		return
	}
	var run []byte
	l.runs, run = openRun(l.runs, size+8)
	e.put(run[len(run):cap(run)], rows, sel, arity, size)
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
		l.Close()
		l.n += n
		l.runs = append(l.runs, run[:len(run):len(run)])
	}
}

// SpliceList appends every group of o, run by run, without copying or
// walking them: the list aliases o's runs from then on.
func (l *Groups) SpliceList(o Groups) {
	l.Close()
	for _, run := range o.Runs() {
		l.runs = append(l.runs, run[:len(run):len(run)])
	}
	l.n += o.n
}

// Records decodes the list, each group once. Every record is a capped
// read-only view arena[b:b+k:b+k] of one arena sized to the list's
// values (the store's view contract: a retained record pins the arena,
// an append reallocates instead of running into the next record). An
// empty list decodes to nil; a zero-arity record to an empty non-nil
// record.
func (l *Groups) Records() []schema.Record {
	l.Close()
	if l.n == 0 {
		return nil
	}
	values := 0
	for _, run := range l.runs {
		for off := 0; off < len(run); {
			h, _, _ := readGroup(run[off:], nil)
			values += h.rows * h.arity
			off += h.size
		}
	}
	var d groupDec
	var cbuf [stackCols]schema.Column
	d.start(l.n, values)
	for _, run := range l.runs {
		for off := 0; off < len(run); {
			h, _ := d.next(run[off:], cbuf[:0])
			off += h.size
		}
	}
	return d.recs
}

// rowPool lends EachRow its decode scratch, a full group of up to
// stackCols columns.
var rowPool = sync.Pool{New: func() any { return new([MaxGroupRows * stackCols]uint64) }}

// EachRow calls fn with every row of the list, in order: each group is
// decoded once (DecodeGroup) into one scratch buffer that the next group
// reuses (rowPool's, up to arity 16), so fn must not keep a row. A row
// is capped: appending to it reallocates.
func (l *Groups) EachRow(fn func(row []uint64)) {
	scratch := rowPool.Get().(*[MaxGroupRows * stackCols]uint64)
	buf := scratch[:0]
	for _, run := range l.Runs() {
		for off := 0; off < len(run); {
			rows, n, size := DecodeGroup(run[off:], buf)
			k := len(rows) / n
			for r := range n {
				fn(rows[r*k : (r+1)*k : (r+1)*k])
			}
			buf, off = rows, off+size
		}
	}
	rowPool.Put(scratch)
}

// groupDec decodes checked groups one after another into one arena,
// each in one walk of its header (readGroup) and with its offsets read
// in place (decodeGroup), and keeps a capped view of every record.
type groupDec struct {
	recs  []schema.Record
	arena []uint64
}

// start readies the decode of n records of values values.
func (d *groupDec) start(n, values int) {
	d.recs = make([]schema.Record, 0, n)
	d.arena = make([]uint64, values)
}

// pastArena is why a group that breaks no rule is not decoded: it holds
// more values than the arena has left.
const pastArena = "group values past the arena"

// next checks the group at the front of b and decodes it, unless it
// breaks a rule or holds more values than the arena has left (why);
// cols is the column readers' scratch (readGroup).
func (d *groupDec) next(b []byte, cols []schema.Column) (h groupHead, why string) {
	if h, cols, why = readGroup(b, cols); why != "" {
		return h, why
	}
	k := h.arity
	if h.rows*k > len(d.arena) {
		return h, pastArena
	}
	out := d.arena[:h.rows*k]
	decodeGroup(b, h, cols, out)
	for r := range h.rows {
		d.recs = append(d.recs, out[r*k:(r+1)*k:(r+1)*k])
	}
	d.arena = d.arena[len(out):]
	return h, ""
}

// Groups walks a group list: encoding copies the runs; decoding checks
// every group by its header and keeps the bytes where they are (see
// Groups).
func (c *codec) Groups(l *Groups) {
	if !c.dec {
		l.Close()
	}
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
	*v = c.groupRecs(n)
}

// groupRecs decodes n records' groups at the decode cursor in one walk,
// each group checked and decoded at once (groupDec.next), into an arena
// sized as though every group had the first one's arity. When the
// groups hold more values than that (groups of mixed arity), or that
// many would break the density rule, the groups are checked first
// (groupRun) and decoded again into an arena of their exact size, the
// first one's reused when it is large enough.
func (c *codec) groupRecs(n int) []schema.Record {
	if n == 0 || c.err != nil {
		return nil
	}
	start, b := c.off, c.buf[c.off:]
	var guess int // values, as though every group had the first one's arity
	if k, m := binary.Uvarint(b[1:]); m > 0 && k <= uint64(len(b))/2 && n*(int(k)+3) <= 4*len(b) {
		guess = n * int(k)
	}
	var d groupDec
	var cbuf [stackCols]schema.Column
	d.start(n, guess)
	arena := d.arena
	for left := n; left > 0; {
		h, why := d.next(c.buf[c.off:], cbuf[:0])
		switch {
		case why == pastArena:
			c.off = start
			run, values := c.groupRun(n)
			if c.err != nil {
				return nil
			}
			if values > len(arena) {
				arena = make([]uint64, values)
			}
			d.recs, d.arena = d.recs[:0], arena
			for off := 0; off < len(run); {
				h, _ := d.next(run[off:], cbuf[:0])
				off += h.size
			}
			return d.recs
		case why != "":
			c.fail("%s", why)
		case h.rows > left:
			c.fail("group of %d rows past the %d records the count leaves", h.rows, left)
		}
		if c.err != nil {
			return nil
		}
		left -= h.rows
		c.off += h.size
	}
	return d.recs
}

// putGroup encodes the rows sel lists, 1 to 32, as one group, or as the
// groups its halves make when one would break the density rule
// (Groups.put), with the codec's pooled scratch.
func (c *codec) putGroup(rows []uint64, sel []int32, arity int) {
	head, body := c.enc.frame(rows, sel, arity)
	if size := head + body; dense(len(sel), arity, size) {
		c.enc.put(c.room(size+8), rows, sel, arity, size)
		c.off += size
		return
	}
	c.putGroup(rows, sel[:len(sel)/2], arity)
	c.putGroup(rows, sel[len(sel)/2:], arity)
}

// groupRun checks groups at the decode cursor, by their headers, until
// they hold n records, and returns their bytes, capped, without copying
// them, and the values they hold.
func (c *codec) groupRun(n int) (run []byte, values int) {
	start := c.off
	for left := n; left > 0 && c.err == nil; {
		h, _, why := readGroup(c.buf[c.off:], nil)
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

// rowRule is what every row of a write-path run's group list holds: at
// least arity columns (exactly arity, when exact), and no value over
// max[i] in its column i.
type rowRule struct {
	arity int
	exact bool
	max   []uint64
}

// run walks the group list of a write-path run (Groups); decoding, it
// fails an empty run and one with a group whose rows break rule.
func (c *codec) run(l *Groups, rule rowRule) {
	c.Groups(l)
	switch {
	case !c.dec || c.err != nil:
	case l.n == 0:
		c.fail("empty run")
	default:
		c.checkRows(l.runs[0], rule)
	}
}

// checkRows holds every group of run, a decoded list's, to rule. A
// group whose bounded columns' headers bound every value they can spell
// within the rule passes by its header alone; any other is decoded and
// its values compared.
func (c *codec) checkRows(run []byte, rule rowRule) {
	var cbuf [stackCols]schema.Column
	var buf []uint64
	for off := 0; off < len(run); {
		b := run[off:]
		h, cols, _ := readGroup(b, cbuf[:0])
		if h.arity < rule.arity || rule.exact && h.arity != rule.arity {
			c.fail("group of arity %d in a run whose rows have %d columns", h.arity, rule.arity)
			return
		}
		loose := false
		for i, most := range rule.max {
			loose = loose || cols[i].Ref+cols[i].Mask*cols[i].Scale > most
		}
		if loose {
			var rows []uint64
			rows, _, _ = DecodeGroup(b, buf)
			for r := 0; r < len(rows); r += h.arity {
				for i, most := range rule.max {
					if v := rows[r+i]; v > most {
						c.fail("value %d in column %d of a run's row, over %d", v, i, most)
						return
					}
				}
			}
			buf = rows
		}
		off += h.size
	}
}
