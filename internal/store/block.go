package store

import (
	"slices"

	"mind/internal/schema"
)

// A packed run — a sealed block, or one leaf of a level (static.go) — is
// framed and packed by schema's frame-of-reference kernel (FramesOf,
// PackRun, Column, Unpack). The indexed columns also keep their maxima,
// and references and maxima together are the run's box: a read skips a
// run whose box misses the window, hands over every row of one whose box
// lies inside it without testing or decoding a row, and decodes only the
// constrained columns of any other (visitPacked). What it hands over is
// a packed view of the run (schema.Batch, Static's view contract), which
// a consumer decodes into 64-bit rows or packs onto the wire as it
// rests. Blocks and leaves differ only in where they keep their frames.
// A run packs from rows of either storage width (a block's 64-bit tail,
// a level's gather arena).

// maxCols is the arity up to which a build or a full decode keeps its
// frames or column readers in a stack buffer (more allocate once per
// run, nothing else changes); a visit keeps its readers in its scratch.
const maxCols = 16

// decodeRows appends rows [r, r+m) of a packed run to dst in dst's word
// width, in row order. Narrowing is exact only when the run's values fit.
func decodeRows[W word](dst []W, cols []schema.Column, words []uint64, r, m int) []W {
	base := len(dst)
	dst = slices.Grow(dst, m*len(cols))[:base+m*len(cols)]
	for c := range cols {
		schema.DecodeColumn(dst[base:], cols, c, words, r)
	}
	return dst
}

// visitPacked hands fn, a leaf-sized run at a time, the rows of a packed
// run of n rows inside the window, as packed views (schema.Batch) over
// the visit's scratch. in says the run's box lies inside the window:
// every row is selected without a test and nothing is decoded. Otherwise
// the constrained columns are decoded, one at a time, each selecting
// among the rows the ones before it left (selectFirst, selectMore), and
// a run that still holds a row is handed over with those columns
// decoded and no other: a consumer decodes the rest (Batch.Rows) or
// packs the selection from the run as it rests (Batch.Pack). A nil fn
// counts the matches into sc.count instead, decoding no more than the
// constrained columns of a straddled run and nothing of one inside.
func visitPacked(sc *scratch, cols []schema.Column, words []uint64, n int, con []bound, in bool, fn func(*schema.Batch)) {
	if in {
		if fn == nil {
			sc.count += n
			return
		}
		con = nil
	}
	arity, b := len(cols), &sc.batch
	for r := 0; r < n; r += leafRows {
		m := min(leafRows, n-r)
		rows := slices.Grow(sc.rows[:0], m*arity)[:m*arity]
		sc.rows = rows
		b.Open(cols, words, r, rows)
		k := m
		for i, c := range con {
			b.Test(c.dim)
			if i == 0 {
				k = selectFirst(rows, arity, c, &sc.sel)
			} else {
				k = selectMore(rows, c, &sc.sel, k)
			}
			if k == 0 {
				break
			}
		}
		if k == 0 {
			continue
		}
		if fn == nil {
			sc.count += k
			continue
		}
		if len(con) == 0 {
			selectRows(rows, arity, nil, &sc.sel)
		}
		b.Select(sc.sel[:k])
		fn(b)
	}
}

// boxTest tests a run's box on the window's constrained dimensions:
// skip when the box misses the window on one of them, in when it lies
// inside on all of them. Indexed dimension d's reference is box[d·step]
// and its maximum box[hi+d·step].
func boxTest[W word](con []bound, box []W, step, hi int) (skip, in bool) {
	in = true
	for _, c := range con {
		lo, top := uint64(box[c.dim*step]), uint64(box[hi+c.dim*step])
		if top < c.lo || lo > c.lo+c.span {
			return true, false
		}
		in = in && inside(lo, c) == 1 && inside(top, c) == 1
	}
	return false, in
}

// block is a tail an appending ladder (Options.Append) sealed, packed by
// the frame kernel. It keeps every column's frame in front of the
// offsets, in one pointer-free slice:
//
//	words[3c], words[3c+1]  column c's reference and maximum
//	words[3c+2]             its shift | width<<8
//	words[3·arity:]         the offsets, then one spare word, so that an
//	                        unpack may always read the word after the
//	                        one a value starts in
//
// A block is immutable. A read hands it over a leaf-sized run at a time,
// as a packed view over the visit's scratch, as a Static hands over its
// leaves (Static's view contract). A ladder keeps its blocks by value
// (ladderSnap.blocks), so sealing one allocates only its words.
type block struct {
	*geom
	n     int
	words []uint64
}

// pack seals rows, a full tail (stride g.arity), into a block.
func pack(g *geom, rows []uint64) block {
	var buf [maxCols]schema.Frame // the frames of up to 16 columns stay off the heap
	frames := schema.FramesOf(buf[:0], rows, nil, g.arity)
	n, head := len(rows)/g.arity, 3*g.arity
	b := block{geom: g, n: n, words: make([]uint64, head+schema.PackedWords(n, frames)+1)}
	for c, f := range frames {
		b.words[3*c], b.words[3*c+1], b.words[3*c+2] = f.Ref, f.Hi, uint64(f.Shift)|uint64(f.Width)<<8
	}
	schema.PackRun(b.words[head:], rows, nil, g.arity, frames)
	return b
}

// frame returns column c's reference, maximum, shift and width.
func (b *block) frame(c int) (ref, hi uint64, shift, width uint) {
	h := b.words[3*c : 3*c+3]
	return h[0], h[1], uint(h[2] & 0xff), uint(h[2] >> 8)
}

// columns appends the block's column readers to cols.
func (b *block) columns(cols []schema.Column) []schema.Column {
	start := uint(64 * 3 * b.arity)
	for c := 0; c < b.arity; c++ {
		ref, _, shift, width := b.frame(c)
		cols = append(cols, schema.NewColumn(ref, shift, width, start))
		start += uint(b.n) * width
	}
	return cols
}

// appendBlock appends the block's rows to dst in dst's word width, in
// row order. Narrowing is exact only when the block is not wide.
func appendBlock[W word](dst []W, b *block) []W {
	var buf [maxCols]schema.Column
	return decodeRows(dst, b.columns(buf[:0]), b.words, 0, b.n)
}

// isWide reports whether some value the block holds needs more than 32
// bits: a carry that absorbs it builds a wide level.
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
// constrained dimension is selected whole without a decode, and any
// other is read run by run as visitPacked reads it.
func (b *block) visit(w *window, sc *scratch, fn func(*schema.Batch)) {
	skip, in := boxTest(w.con, b.words, 3, 1)
	if skip {
		return
	}
	sc.cols = b.columns(sc.cols[:0])
	visitPacked(sc, sc.cols, b.words, b.n, w.con, in, fn)
}

// each streams the block's rows in row order as views of one fresh
// decode, and reports whether it ran to the end.
func (b *block) each(yield func(schema.Record) bool) bool {
	return eachRow(appendBlock[uint64](nil, b), b.arity, yield)
}
