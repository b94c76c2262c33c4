package store

import (
	"math"
	"math/bits"
	"slices"

	"mind/internal/schema"
)

// block is a tail an appending ladder (Options.Append) sealed, packed by
// column with frame-of-reference coding. Each column keeps a reference
// (its minimum), its maximum, a shift (the trailing zero bits every
// offset from the reference shares) and a width, the bits the largest
// shifted offset needs; the rows' offsets (v-ref)>>shift are packed at
// that width, column after column, in row order. A column of equal
// values has width 0 and costs no bits; one spanning all 64 bits has
// width 64. One kernel packs and unpacks values of either word width.
//
// The indexed columns' references and maxima are the block's box: a
// read skips a block whose box misses the window, hands over every row
// of a block whose box lies inside it without testing a row, and scans
// any other block as a tail is scanned once a row of it is found inside
// (visit).
//
// Everything lives in one pointer-free slice, the header first:
//
//	words[3c], words[3c+1]  column c's reference and maximum
//	words[3c+2]             its shift | width<<8
//	words[3·arity:]         the offsets, least significant bit first,
//	                        then one spare word, so that an unpack may
//	                        always read the word after the one a value
//	                        starts in
//
// A block is immutable. A read decodes it into a fresh arena, in 32-bit
// words when every value fits them and 64-bit ones otherwise, as a
// Static keeps its rows, and hands that arena over: a record or batch
// handed out pins its decoded arena, never the block (Static's view
// contract). A ladder keeps its blocks by value (ladderSnap.blocks), so
// sealing one allocates only its words.
type block struct {
	*geom
	n     int
	words []uint64
}

// pack seals rows, a full tail (stride g.arity), into a block.
func pack(g *geom, rows []uint64) block {
	var buf [48]uint64 // the header of up to 16 columns stays off the heap
	head, nbits := buf[:0], 0
	n := len(rows) / g.arity
	for c := 0; c < g.arity; c++ {
		ref, hi, shift, width := frameOf(rows, g.arity, c)
		head = append(head, ref, hi, uint64(shift)|uint64(width)<<8)
		nbits += n * int(width)
	}
	b := block{geom: g, n: n, words: make([]uint64, len(head)+(nbits+63)/64+1)}
	copy(b.words, head)
	// acc gathers the have low bits of words[k] not yet stored; a value
	// that fills it stores the word and leaves its remaining bits.
	k, acc, have := len(head), uint64(0), uint(0)
	for c := 0; c < g.arity; c++ {
		ref, _, shift, width := b.frame(c)
		if width == 0 {
			continue
		}
		for i := c; i < len(rows); i += g.arity {
			v := (rows[i] - ref) >> shift
			acc |= v << have
			if have += width; have >= 64 {
				b.words[k] = acc
				k, have = k+1, have-64
				acc = v >> 1 >> (width - have - 1) // the bits of v past the stored word; none when it ended there
			}
		}
	}
	b.words[k] = acc
	return b
}

// frameOf computes column c's frame over rows (stride arity). The
// offsets from the reference share exactly the trailing zeros in which
// every value agrees with the first, so one pass finds all four.
func frameOf(rows []uint64, arity, c int) (ref, hi uint64, shift, width uint) {
	ref, first := uint64(math.MaxUint64), rows[c]
	var differ uint64
	for i := c; i < len(rows); i += arity {
		v := rows[i]
		ref, hi, differ = min(ref, v), max(hi, v), differ|(v^first)
	}
	if differ == 0 {
		return ref, hi, 0, 0
	}
	shift = uint(bits.TrailingZeros64(differ))
	return ref, hi, shift, uint(bits.Len64((hi - ref) >> shift))
}

// frame returns column c's reference, maximum, shift and width.
func (b *block) frame(c int) (ref, hi uint64, shift, width uint) {
	h := b.words[3*c : 3*c+3]
	return h[0], h[1], uint(h[2] & 0xff), uint(h[2] >> 8)
}

// column reads one column of a block: its reference, the mask of its
// width, the scale its shift multiplies an offset by (a multiply is
// cheaper here than a shift by a variable count) and the bit its first
// offset starts at.
type column struct {
	ref, mask, scale uint64
	width, start     uint
}

// column returns column c's reader.
func (b *block) column(c int) column {
	start := uint(64 * 3 * b.arity)
	for p := 0; p < c; p++ {
		_, _, _, width := b.frame(p)
		start += uint(b.n) * width
	}
	ref, _, shift, width := b.frame(c)
	return column{ref: ref, mask: 1<<width - 1, scale: 1 << shift, width: width, start: start} // mask: all ones at width 64
}

// at decodes the column's value in row i of words. Word k+1 adds
// nothing when the value starts a word, and a width-0 column reads no
// word at all: its offsets may start past the last one.
func (c column) at(words []uint64, i int) uint64 {
	if c.width == 0 {
		return c.ref
	}
	pos := c.start + uint(i)*c.width
	k, s := pos>>6, pos&63
	return c.ref + (words[k]>>s|words[k+1]<<1<<(63-s))&c.mask*c.scale
}

// appendBlock appends the block's rows to dst in dst's word width, in
// row order. Narrowing is exact only when the block is not wide.
func appendBlock[W schema.Word](dst []W, b *block) []W {
	base := len(dst)
	dst = slices.Grow(dst, b.n*b.arity)[:base+b.n*b.arity]
	for c := 0; c < b.arity; c++ {
		col := b.column(c)
		unpack(dst[base+c:], b.arity, b.words, col.ref, col.mask, col.scale, col.width, col.start)
	}
	return dst
}

// unpack decodes one column into out[0], out[arity], out[2·arity] and
// on, as column.at does value by value. The frame comes as plain
// arguments so that the loop keeps it in registers: read through a
// column it runs about a third slower.
func unpack[W schema.Word](out []W, arity int, words []uint64, ref, mask, scale uint64, width, start uint) {
	if width == 0 {
		for i := 0; i < len(out); i += arity {
			out[i] = W(ref)
		}
		return
	}
	for i, pos := 0, start; i < len(out); i, pos = i+arity, pos+width {
		k, s := pos>>6, pos&63
		out[i] = W(ref + (words[k]>>s|words[k+1]<<1<<(63-s))&mask*scale)
	}
}

// anyInside reports whether some row of the block satisfies every
// bound, decoding only the constrained columns, row by row, and each
// only while the row survives the ones before: a block the window
// straddles without holding a match is not decoded whole.
func (b *block) anyInside(con []bound) bool {
	var buf [maxStackDims]column
	cols := buf[:0]
	for _, c := range con {
		cols = append(cols, b.column(c.dim))
	}
	for i := 0; i < b.n; i++ {
		j := 0
		for j < len(con) && inside(cols[j].at(b.words, i), con[j]) == 1 {
			j++
		}
		if j == len(con) {
			return true
		}
	}
	return false
}

// isWide reports whether some value the block holds needs more than 32
// bits: a read decodes it into 64-bit words.
func (b *block) isWide() bool {
	for c := 0; c < b.arity; c++ {
		if b.words[3*c+1]>>32 != 0 {
			return true
		}
	}
	return false
}

// bytes is the block's footprint: its header and packed offsets.
func (b *block) bytes() int { return 8 * len(b.words) }

// visit hands fn the block's rows inside the window, a leaf-sized run at
// a time. The box decides first: a block outside the window on some
// constrained dimension is skipped undecoded, one inside it on every
// constrained dimension is decoded and selected whole, and any other is
// decoded and scanned once some row of it is found inside (anyInside).
func (b *block) visit(w *window, sel *selection, fn func(rows schema.Rows, sel []int32)) {
	con := w.con
	in := true
	for _, c := range w.con {
		ref, hi := b.words[3*c.dim], b.words[3*c.dim+1]
		if hi < c.lo || ref > c.lo+c.span {
			return
		}
		in = in && inside(ref, c) == 1 && inside(hi, c) == 1
	}
	if in {
		con = nil
	} else if !b.anyInside(con) {
		return
	}
	if b.isWide() {
		scanBatches(appendBlock[uint64](nil, b), b.arity, con, sel, fn)
	} else {
		scanBatches(appendBlock[uint32](nil, b), b.arity, con, sel, fn)
	}
}

// each streams the block's rows in row order as views of one fresh
// 64-bit decode, and reports whether it ran to the end.
func (b *block) each(yield func(schema.Record) bool) bool {
	return eachRow(appendBlock[uint64](nil, b), b.arity, yield)
}
