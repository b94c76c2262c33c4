package schema

import "math/bits"

// The frame-of-reference kernel. A run of rows — a sealed store block,
// one leaf of a store level, or one group of a query answer on the wire
// — is packed by column: each column keeps a reference (its minimum), a
// shift (the trailing zero bits every offset from the reference shares)
// and a width, the bits the largest shifted offset needs, and the rows'
// offsets (v-ref)>>shift follow at that width, column after column, in
// row order, least significant bit first. A column of equal values has
// width 0 and costs no bits; one spanning all 64 bits has width 64. One
// kernel — FramesOf, PackRun, Column, Unpack — packs and reads values for
// every run; only where a run keeps its frames differs. It packs from
// rows of either storage width, all of them (sel nil) or the rows whose
// word offsets sel lists, and reads into rows of either width.

// Frame is one column's frame over a run of rows: its reference and
// maximum, and the shift and width of its offsets.
type Frame struct {
	Ref, Hi      uint64
	Shift, Width uint
}

// FramesOf appends to dst each column's frame over rows (stride arity),
// or over the rows at the word offsets sel lists when sel is not nil.
func FramesOf[W uint32 | uint64](dst []Frame, rows []W, sel []int32, arity int) []Frame {
	for c := range arity {
		dst = append(dst, frameOf(rows[c:], sel, arity))
	}
	return dst
}

// frameOf is the frame of col[0], col[arity], col[2·arity] and on, or of
// col[o] for each o in sel when sel is not nil. The offsets from the
// reference share exactly the trailing zeros in which every value agrees
// with the first, so one pass finds all four. A function of its own,
// too large to inline, so that its loop keeps every value it carries in
// a register.
func frameOf[W uint32 | uint64](col []W, sel []int32, arity int) Frame {
	var first, differ uint64
	if sel == nil {
		first = uint64(col[0])
	} else {
		first = uint64(col[sel[0]])
	}
	lo, hi := first, first
	if sel == nil {
		for i := 0; i < len(col); i += arity {
			v := uint64(col[i])
			lo, hi, differ = min(lo, v), max(hi, v), differ|(v^first)
		}
	} else {
		for _, o := range sel {
			v := uint64(col[o])
			lo, hi, differ = min(lo, v), max(hi, v), differ|(v^first)
		}
	}
	f := Frame{Ref: lo, Hi: hi}
	if differ != 0 {
		f.Shift = uint(bits.TrailingZeros64(differ))
		f.Width = uint(bits.Len64((hi - lo) >> f.Shift))
	}
	return f
}

// PackedBits is the number of bits the offsets of n rows framed by
// frames fill.
func PackedBits(n int, frames []Frame) int {
	nbits := 0
	for _, f := range frames {
		nbits += n * int(f.Width)
	}
	return nbits
}

// PackedWords is the number of words the offsets of n rows framed by
// frames fill.
func PackedWords(n int, frames []Frame) int { return (PackedBits(n, frames) + 63) / 64 }

// PackRun packs the offsets of rows (stride arity; with sel, the rows at
// the word offsets it lists), one column per frame, into dst from its
// first word on.
func PackRun[W uint32 | uint64](dst []uint64, rows []W, sel []int32, arity int, frames []Frame) {
	k, acc, have := 0, uint64(0), uint(0)
	for c, f := range frames {
		if f.Width > 0 {
			k, acc, have = packColumn(dst, k, acc, have, rows[c:], sel, arity, f)
		}
	}
	if have > 0 {
		dst[k] = acc
	}
}

// packColumn packs the offsets of one column framed by f — col[0],
// col[arity] and on, or col[o] for each o in sel — after the have bits
// in acc that dst[k] has yet to store, and returns where it left off.
// A value that fills acc stores the word and leaves its remaining bits.
// Every shift count is below 64 (a framed column's shift is, as its
// width is at least 1), and masking it says so: the compiler then emits
// a bare shift. A function of its own, too large to inline, so that its
// loop keeps every value it carries in a register.
func packColumn[W uint32 | uint64](dst []uint64, k int, acc uint64, have uint, col []W, sel []int32, arity int, f Frame) (int, uint64, uint) {
	ref, shift, width := f.Ref, f.Shift&63, f.Width
	put := func(v uint64) {
		v = (v - ref) >> shift
		acc |= v << (have & 63)
		if have += width; have >= 64 {
			dst[k] = acc
			k, have = k+1, have-64
			acc = v >> 1 >> ((width - have - 1) & 63) // the bits of v past the stored word; none when it ended there
		}
	}
	if sel == nil {
		for i := 0; i < len(col); i += arity {
			put(uint64(col[i]))
		}
	} else {
		for _, o := range sel {
			put(uint64(col[o]))
		}
	}
	return k, acc, have
}

// Column reads one column of a packed run: its reference, the mask of
// its width, the scale its shift multiplies an offset by (a multiply is
// cheaper here than a shift by a variable count) and the bit its first
// offset starts at.
type Column struct {
	Ref, Mask, Scale uint64
	Width, Start     uint
}

// NewColumn reads a column framed by ref, shift and width whose offsets
// start at bit start.
func NewColumn(ref uint64, shift, width, start uint) Column {
	return Column{Ref: ref, Mask: 1<<width - 1, Scale: 1 << shift, Width: width, Start: start} // mask: all ones at width 64
}

// DecodeColumn decodes column c of a packed run's rows from row r on
// into rows (stride len(cols)), as many as rows holds. words must hold
// one word past the one the last offset starts in.
func DecodeColumn[W uint32 | uint64](rows []W, cols []Column, c int, words []uint64, r int) {
	col := cols[c]
	Unpack(rows[c:], len(cols), words, col.Ref, col.Mask, col.Scale, col.Width, col.Start+uint(r)*col.Width)
}

// Unpack decodes one column into out[0], out[arity], out[2·arity] and
// on. Word k+1 adds nothing when a value starts a word, and a width-0
// column reads no word at all: its offsets may start past the last one.
// The frame comes as plain arguments so that the loop keeps it in
// registers, and a column without a shift skips the multiply: a read
// whose leaves lie inside the window decodes 14–27 % faster for it
// (EXPERIMENTS.md "Primary leaves packed", the unshifted loop).
func Unpack[W uint32 | uint64](out []W, arity int, words []uint64, ref, mask, scale uint64, width, start uint) {
	switch {
	case width == 0:
		for i := 0; i < len(out); i += arity {
			out[i] = W(ref)
		}
	case scale == 1:
		for i, pos := 0, start; i < len(out); i, pos = i+arity, pos+width {
			k, s := pos>>6, pos&63
			out[i] = W(ref + (words[k]>>s|words[k+1]<<1<<(63-s))&mask)
		}
	default:
		for i, pos := 0, start; i < len(out); i, pos = i+arity, pos+width {
			k, s := pos>>6, pos&63
			out[i] = W(ref + (words[k]>>s|words[k+1]<<1<<(63-s))&mask*scale)
		}
	}
}
