package wire

import (
	"encoding/binary"
	"math/bits"

	"mind/internal/schema"
)

// The record list is the shape records travel in on the write path
// (insert, replicate; query answers travel as groups, groups.go): a
// record count, then each record as
//
//	arity (minimal uvarint) | ⌈arity/2⌉ tag bytes | the values
//
// where tag nibble i, low nibble first, is value i's byte length (0–8)
// and the value follows as that many little-endian bytes, the top one
// non-zero (0 takes none). Every record has exactly one encoding, so two
// records are equal exactly when their bytes are, and a record's length
// is its arity's bytes, its tag bytes and their nibble sum — found
// without reading a value. DESIGN.md §6 "The record-list rule".

// tagLen[t] is the byte length of the two values tag byte t describes.
// Only validated tags are looked up (a nibble over 8 fails the decode).
var tagLen = func() (t [256]uint8) {
	for b := range t {
		t[b] = uint8(b&15 + b>>4)
	}
	return t
}()

// lenMask[l] keeps the low l bytes of a word (l ≤ 8; indexed by a
// nibble, so the lookup needs no bounds check).
var lenMask = [16]uint64{0, 1<<8 - 1, 1<<16 - 1, 1<<24 - 1, 1<<32 - 1, 1<<40 - 1, 1<<48 - 1, 1<<56 - 1, ^uint64(0)}

// maxRecLen is the most bytes a record of arity k encodes to.
func maxRecLen(k int) int { return binary.MaxVarintLen64 + (k+1)/2 + 8*k }

// byteLen is the minimal byte length of v.
func byteLen(v uint64) int { return (bits.Len64(v) + 7) >> 3 }

// putRec encodes rec at the front of b, which has room for maxRecLen of
// its arity, and returns the bytes written. Each value is stored as a
// whole word and the write advances by its length, so the next value
// overwrites the zero bytes above it; values go two to a tag byte, the
// pairs first and an odd arity's last value after them.
func putRec(b []byte, rec []uint64) int {
	t := 1
	if len(rec) < 0x80 {
		b[0] = byte(len(rec))
	} else {
		t = binary.PutUvarint(b, uint64(len(rec)))
	}
	p := t + (len(rec)+1)/2
	i := 0
	for ; i+1 < len(rec); i += 2 {
		v, w := rec[i], rec[i+1]
		l, h := byteLen(v), byteLen(w)
		binary.LittleEndian.PutUint64(b[p:], v)
		binary.LittleEndian.PutUint64(b[p+l:], w)
		b[t] = byte(l | h<<4)
		t++
		p += l + h
	}
	if i < len(rec) {
		v := rec[i]
		binary.LittleEndian.PutUint64(b[p:], v)
		b[t] = byte(byteLen(v))
		p += int(b[t])
	}
	return p
}

// loadVal reads the l-byte value at b[p:], a word at a time when eight
// bytes are in hand.
func loadVal(b []byte, p, l int) uint64 {
	if len(b)-p >= 8 {
		return binary.LittleEndian.Uint64(b[p:]) & lenMask[l&15]
	}
	var v uint64
	for j := p + l - 1; j >= p; j-- {
		v = v<<8 | uint64(b[j])
	}
	return v
}

// recLen returns the byte length of the record at the front of b, which
// must start at a record boundary of a decoded RecList's run: the arity,
// the tag bytes and the sum of their nibbles.
func recLen(b []byte) int {
	k, n := uint64(b[0]), 1
	if k >= 0x80 {
		k, n = binary.Uvarint(b)
	}
	size := n + int(k+1)/2
	for _, t := range b[n:size] {
		size += int(tagLen[t])
	}
	return size
}

// checkRec validates the record at the decode cursor and steps over it.
// The arity must be a minimal uvarint of at most twice the bytes that
// remain after it (a zero value costs half a tag byte), so its tag bytes
// are always there; a set high nibble after an odd arity, a length over
// 8, a value past the input, or one whose length is not its minimal
// byte length (a zero top byte) fails. Values are checked a tag byte at
// a time, by their top bytes alone.
func (c *codec) checkRec() {
	b := c.buf[c.off:]
	x, n := binary.Uvarint(b)
	switch {
	case n <= 0:
		c.fail("bad record arity")
		return
	case n > 1 && b[n-1] == 0:
		c.fail("non-minimal record arity")
		return
	case x > 2*uint64(len(b)-n):
		c.fail("record arity %d exceeds twice the %d bytes remaining", x, len(b)-n)
		return
	}
	k := int(x)
	tags := b[n : n+(k+1)/2]
	if k&1 == 1 && tags[len(tags)-1] > 15 {
		c.fail("stray tag nibble after arity %d", k)
		return
	}
	p := n + len(tags)
	for _, t := range tags {
		l, h := int(t&15), int(t>>4)
		if l > 8 || h > 8 || l+h > len(b)-p {
			c.fail("value lengths %d, %d over 8 or past the %d bytes remaining", l, h, len(b)-p)
			return
		}
		if l > 0 && b[p+l-1] == 0 || h > 0 && b[p+l+h-1] == 0 {
			c.fail("non-minimal record value")
			return
		}
		p += l + h
	}
	c.off += p
}

// RecList is a record list in its wire form: a record count and the byte
// runs that, concatenated, are the records' encodings. An originator
// appends an inserted record to its run once (Append), every hop splices
// it on a record at a time (Splice), and only the owner decodes it
// (Records, RecInto); encoding copies the runs.
//
// A decoded RecList is one run that aliases the frame it was decoded
// from, validated record by record but not copied: a frame must not be
// reused while a list decoded from it lives. Every path a message
// arrives by hands Decode a buffer of its own — tcpnet reads each frame
// into a fresh one, simnet copies in Send, and a batch's sub-messages
// are copies made when the batch decodes; the one caller that reuses its
// read buffer, the ingest client, keeps only stream-status frames. Runs
// handed in by Splice or decoded are capped, so appending to the list
// never writes into the frame behind them. A RecList has one owner:
// copies of one share runs.
type RecList struct {
	n    int
	runs [][]byte
	// ext is the last run as Splice was handed it, its capacity intact: a
	// splice of the bytes that follow it in the same list extends the run
	// instead of adding one. Nil once anything else is appended.
	ext []byte
}

const minRun = 1 << 10

// Len returns the number of records in the list.
func (l RecList) Len() int { return l.n }

// Runs returns the list's byte runs; each holds whole records. The runs
// are read-only.
func (l RecList) Runs() [][]byte { return l.runs }

// open returns the list's last run with room for n more bytes
// (openRun).
func (l *RecList) open(n int) []byte {
	l.ext = nil
	var run []byte
	l.runs, run = openRun(l.runs, n)
	return run
}

// openRun returns runs with a last run that has room for n more bytes,
// and that run. When the last run has too little it opens a new one of
// twice its capacity instead of growing it: a responder's list grows a
// batch at a time to tens of kilobytes in a few runs, and no byte is
// ever copied. The first run holds at least minRun bytes, so the few
// small batches of a narrow answer share one run rather than doubling up
// from the first.
func openRun(runs [][]byte, n int) ([][]byte, []byte) {
	size := max(n, minRun)
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

// Append encodes rec onto the end of the list.
func (l *RecList) Append(rec schema.Record) {
	run := l.open(maxRecLen(len(rec)))
	l.runs[len(l.runs)-1] = run[:len(run)+putRec(run[len(run):cap(run)], rec)]
	l.n++
}

// Splice appends run, n whole records cut from a decoded list's runs at
// record boundaries, without copying it: the list aliases run from then
// on. Records spliced one at a time in list order (a RecCursor's) join
// one run: a splice that starts where the previous one ended extends it.
func (l *RecList) Splice(run []byte, n int) {
	if n == 0 {
		return
	}
	l.n += n
	if e := l.ext; len(e) < cap(e) && len(e)+len(run) <= cap(e) && &e[:len(e)+1][len(e)] == &run[0] {
		l.ext = e[:len(e)+len(run)]
		l.runs[len(l.runs)-1] = l.ext[:len(l.ext):len(l.ext)]
		return
	}
	l.ext = run
	l.runs = append(l.runs, run[:len(run):len(run)])
}

// RecCursor walks a record list one record at a time, in order.
type RecCursor struct {
	runs     [][]byte
	run      []byte
	off, end int // the current record is run[off:end]
}

// Cursor returns a cursor before the list's first record.
func (l RecList) Cursor() RecCursor { return RecCursor{runs: l.runs} }

// Next steps to the next record and returns its bytes, ready to Splice,
// or nil past the last one.
func (c *RecCursor) Next() []byte {
	for c.end == len(c.run) {
		if len(c.runs) == 0 {
			return nil
		}
		c.run, c.runs, c.end = c.runs[0], c.runs[1:], 0
	}
	c.off = c.end
	c.end += recLen(c.run[c.off:])
	return c.run[c.off:c.end]
}

// RecInto decodes the record at the front of b — a record RecCursor.Next
// returned, or any record boundary of a list's run — into dst, resized
// to its arity (reallocated only if too small), and returns it. Values
// load a word at a time over b's capacity: a record cut from a run reads
// the bytes after it and masks them off.
func RecInto(b []byte, dst []uint64) []uint64 {
	b = b[:cap(b)]
	k, n := uint64(b[0]), 1
	if k >= 0x80 {
		k, n = binary.Uvarint(b)
	}
	if uint64(cap(dst)) < k {
		dst = make([]uint64, k)
	}
	dst = dst[:k]
	readVals(b, n, dst)
	return dst
}

// readVals decodes the values of a record of arity len(rec) whose tag
// bytes start at run[p], and returns the offset past its last value.
func readVals(run []byte, p int, rec []uint64) int {
	tags := run[p : p+(len(rec)+1)/2]
	p += len(tags)
	for i := range rec {
		w := int(tags[i>>1]>>(4*(i&1))) & 15
		rec[i] = loadVal(run, p, w)
		p += w
	}
	return p
}

// Records decodes the list. Every record is a capped read-only view
// arena[b:b+k:b+k] of a shared arena (the store's view contract: a
// retained record pins its arena, an append reallocates instead of
// running into the next record). An arena is sized from its first
// record's arity × the records still to come, and a record that does
// not fit opens a fresh one sized the same way from its own arity, so a
// list of one arity decodes into exactly one. An arena is never longer
// than twice the bytes that remain (a value costs at least half a tag
// byte), and one is abandoned only for a record longer than what it had
// left; DESIGN.md §6 turns that into the count rule's bound. An empty
// list decodes to nil; a zero-arity record to an empty non-nil record.
func (l RecList) Records() []schema.Record {
	if l.n == 0 {
		return nil
	}
	left := 0 // bytes not yet decoded
	for _, run := range l.runs {
		left += len(run)
	}
	recs := make([]schema.Record, 0, l.n)
	arena := []uint64{}
	for _, run := range l.runs {
		for off := 0; off < len(run); {
			x, n := uint64(run[off]), 1
			if x >= 0x80 {
				x, n = binary.Uvarint(run[off:])
			}
			k := int(x)
			if k > len(arena) {
				arena = make([]uint64, min(k*(l.n-len(recs)), 2*(left-off)))
			}
			rec := arena[:k:k]
			arena = arena[k:]
			off = readVals(run, off+n, rec)
			recs = append(recs, rec)
		}
		left -= len(run)
	}
	return recs
}

// RecList walks a record list in its wire form: encoding copies the
// runs; decoding validates every record and keeps the bytes where they
// are (see RecList).
func (c *codec) RecList(l *RecList) {
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
	if run := c.recRun(n); c.err == nil && n > 0 {
		*l = RecList{n: n, runs: [][]byte{run}}
	}
}

// run walks the record list of a run kind (insert, replicate) and
// returns its record count; a decoded run holds at least one record.
func (c *codec) run(l *RecList) int {
	c.RecList(l)
	if c.dec && c.err == nil && l.n == 0 {
		c.fail("empty run")
	}
	return l.n
}

// column walks one per-record column of a run: a length prefix, which a
// decode holds to the run's record count n, then the values.
func column[T any](c *codec, v *[]T, n int, elem func(*codec, *T)) {
	slice(c, v, MaxSliceLen, elem)
	if c.dec && c.err == nil && len(*v) != n {
		c.fail("column of %d values in a run of %d records", len(*v), n)
	}
}

// recRun validates n records at the decode cursor (checkRec) and
// returns their bytes, capped, without copying them.
func (c *codec) recRun(n int) []byte {
	start := c.off
	for i := 0; i < n && c.err == nil; i++ {
		c.checkRec()
	}
	return c.buf[start:c.off:c.off]
}
