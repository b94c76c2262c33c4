package schema

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// Batch is what a store read hands over at a time (store.Sharded's
// VisitBatches): a run of at most 32 rows of one arity and a selection,
// the ascending word offsets of the rows inside the window — row j is
// rows[sel[j] : sel[j]+arity]. It is a view of the run as it rests: a
// packed run (a store leaf, or a leaf-sized stretch of a sealed block)
// read through its column readers, or plain rows (a tail's). A packed
// run's columns are decoded only where the read had to test them to
// select its rows. The view has two ways out:
//
//   - Rows decodes the rest of the columns and returns the rows and the
//     selection, for a consumer that needs values.
//   - Frames and Pack give the selection as one frame-of-reference group
//     at the run's own frames (wire.Groups.AppendBatch): a column the
//     read did not test keeps its run's frame and its offsets travel as
//     they rest — a copy of their bits when every row is selected,
//     gathered at the run's width otherwise — and a tested column, whose
//     values are decoded already, is framed anew over the selection.
//     Nothing they send is decoded.
//
// A batch is the visit's scratch: it, its rows and its selection are
// valid only while the callback it is handed to runs.
type Batch struct {
	rows  []uint64 // the run's rows, stride arity; of a packed run, decoded only in the columns decoded names
	sel   []int32
	arity int
	// A packed run: nil words for plain rows.
	words   []uint64
	cols    []Column // the run's column readers; its first row is row r of theirs
	r       int
	tested  uint64 // the columns decoded to select the rows, below column 64
	decoded bool   // every column decoded (Rows)
}

// SetRows makes b a batch of plain rows (stride arity) and their
// selection.
func (b *Batch) SetRows(rows []uint64, sel []int32, arity int) {
	*b = Batch{rows: rows, sel: sel, arity: arity, decoded: true}
}

// Open makes b the packed run of len(rows)/len(cols) rows whose offsets
// start at row r of cols, read from words, with rows as its decode
// scratch (len(cols) words a row). Nothing is decoded and nothing is
// selected yet.
func (b *Batch) Open(cols []Column, words []uint64, r int, rows []uint64) {
	*b = Batch{rows: rows, arity: len(cols), words: words, cols: cols, r: r}
}

// Test decodes column c of every row of an open packed run into its
// rows, for the read to select rows by.
func (b *Batch) Test(c int) {
	DecodeColumn(b.rows, b.cols, c, b.words, b.r)
	b.tested |= 1 << c
}

// Select sets the selection: the word offsets of the rows handed on.
func (b *Batch) Select(sel []int32) { b.sel = sel }

// Len is the number of rows selected.
func (b *Batch) Len() int { return len(b.sel) }

// Arity is the number of values a row holds.
func (b *Batch) Arity() int { return b.arity }

// Rows decodes the columns the read did not test, once, and returns the
// rows and the selection.
func (b *Batch) Rows() (rows []uint64, sel []int32) {
	if !b.decoded {
		for c := range b.cols {
			if !b.isTested(c) {
				DecodeColumn(b.rows, b.cols, c, b.words, b.r)
			}
		}
		b.decoded = true
	}
	return b.rows, b.sel
}

// isTested reports whether column c was decoded to select the rows.
func (b *Batch) isTested(c int) bool { return c < 64 && b.tested&(1<<c) != 0 }

// Packed reports whether b is a view of a packed run, which Frames and
// Pack read; a batch of plain rows is framed from Rows.
func (b *Batch) Packed() bool { return b.words != nil }

// RowBits is the bits a row's offsets take at the run's own frames, at
// most what Pack spends on a row; 0 for plain rows.
func (b *Batch) RowBits() int {
	w := 0
	for c := range b.cols {
		w += int(b.cols[c].Width)
	}
	return w
}

// Frames appends the frames Pack packs the selection of a packed run at
// to dst. A column the read tested is framed over the selection; any
// other keeps the run's frame, whose maximum is not known (its Hi is 0).
func (b *Batch) Frames(dst []Frame) []Frame {
	n := len(dst)
	dst = slices.Grow(dst, len(b.cols))[:n+len(b.cols)]
	for c := range b.cols {
		if col, f := &b.cols[c], &dst[n+c]; b.isTested(c) {
			*f = frameOf(b.rows[c:], b.sel, b.arity)
		} else {
			*f = Frame{Ref: col.Ref, Shift: uint(bits.TrailingZeros64(col.Scale)), Width: col.Width}
		}
	}
	return dst
}

// Pack writes the selection's offsets, one column per frame of frames
// (Frames' result; a tested column's reference may have been lowered
// since), little-endian at the front of dst, in the layout PackRun
// packs words in: ⌈bits/8⌉ bytes, and dst must have 8 bytes of room past
// them. An untested column's offsets are the run's own: the bits of all
// of its rows copied as they rest when every row is selected, else each
// selected row's gathered at the run's width.
func (b *Batch) Pack(dst []byte, frames []Frame) {
	var rbuf [32]uint32 // the selected rows' indices in their columns, for a gather
	m := len(b.rows) / b.arity
	var at []uint32
	if len(b.sel) < m {
		// o/arity by a multiply: exact for the word offsets of a run's
		// at most 32 rows, as a row index times the rounding error stays
		// below 2³² for any arity below 2²⁷.
		inv := (1<<32 + uint64(b.arity) - 1) / uint64(b.arity)
		at = rbuf[:0]
		for _, o := range b.sel {
			at = append(at, uint32(b.r)+uint32(uint64(o)*inv>>32))
		}
	}
	var out bitWriter
	for c, f := range frames {
		switch col := &b.cols[c]; {
		case f.Width == 0:
		case b.isTested(c):
			out.values(dst, b.rows[c:], b.sel, f)
		case at == nil:
			out.copy(dst, b.words, col.Start+uint(b.r)*col.Width, uint(m)*col.Width)
		default:
			out.gather(dst, b.words, at, col)
		}
	}
	out.flush(dst)
}

// bitWriter appends bit fields to a byte slice a word at a time: acc
// holds the have bits of word k still to be stored. Each loop below
// keeps the writer in registers (putBits) and stores it back once.
type bitWriter struct {
	k    int
	acc  uint64
	have uint
}

// putBits appends v, of width bits (1 to 64), to the writer k, acc,
// have and returns it: a field that fills the word stores it (dst has 8
// bytes of room past the last word filled) and leaves its remaining
// bits. Every shift count is masked below 64, so that the compiler
// emits a bare shift.
func putBits(dst []byte, k int, acc uint64, have uint, v uint64, width uint) (int, uint64, uint) {
	acc |= v << (have & 63)
	if have += width; have >= 64 {
		binary.LittleEndian.PutUint64(dst[8*k:], acc)
		k, have = k+1, have-64
		acc = v >> 1 >> ((width - have - 1) & 63) // the bits of v past the stored word; none when it ended there
	}
	return k, acc, have
}

// flush stores the word being filled.
func (w *bitWriter) flush(dst []byte) { binary.LittleEndian.PutUint64(dst[8*w.k:], w.acc) }

// values appends the offsets of the values col[o], o in sel, framed by f.
func (w *bitWriter) values(dst []byte, col []uint64, sel []int32, f Frame) {
	k, acc, have := w.k, w.acc, w.have
	ref, shift, width := f.Ref, f.Shift&63, f.Width
	for _, o := range sel {
		k, acc, have = putBits(dst, k, acc, have, (col[o]-ref)>>shift, width)
	}
	w.k, w.acc, w.have = k, acc, have
}

// copy appends n bits of words from bit pos on, 64 at a time. A whole
// leaf's first column starts a word, so its offsets are copied word for
// word. words holds a word past the one the last bit is in.
func (w *bitWriter) copy(dst []byte, words []uint64, pos, n uint) {
	k, acc, have := w.k, w.acc, w.have
	for n > 0 {
		width := min(n, 64)
		i, s := pos>>6, pos&63
		k, acc, have = putBits(dst, k, acc, have, (words[i]>>s|words[i+1]<<1<<(63-s))&(1<<width-1), width) // mask: all ones at 64
		pos, n = pos+width, n-width
	}
	w.k, w.acc, w.have = k, acc, have
}

// gather appends the offsets of col's rows at, each at col's width.
func (w *bitWriter) gather(dst []byte, words []uint64, at []uint32, col *Column) {
	k, acc, have := w.k, w.acc, w.have
	start, width, mask := col.Start, col.Width, col.Mask
	for _, row := range at {
		pos := start + uint(row)*width
		i, s := pos>>6, pos&63
		k, acc, have = putBits(dst, k, acc, have, (words[i]>>s|words[i+1]<<1<<(63-s))&mask, width)
	}
	w.k, w.acc, w.have = k, acc, have
}
