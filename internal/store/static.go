package store

import (
	"math"
	"math/bits"
	"slices"

	"mind/internal/schema"
)

// Static is one level of a ladder: an immutable k-d index whose leaves
// are packed by frame of reference — the one index structure of the
// store engine (DESIGN.md §4h). Only a carry builds one (newLevel), and
// only the ladder reads it (Sharded). The build permutes the records
// into k-d PARTITION ORDER, in which every subtree of the index is one
// contiguous row range, then packs the range of every leaf with
// schema's frame-of-reference kernel and keeps nothing unpacked. Everything a traversal
// touches lives in pointer-free slices the garbage collector never scans
// (an arena):
//
//   - cuts: the split values as an implicit BFS tree — root at 1, the
//     children of node i at 2i and 2i+1; nil for a level of at most
//     leafRows rows. Node i over rows [lo, hi) splits at mid =
//     lo+(hi-lo)/2 into [lo, mid) and [mid, hi), so a descent re-derives
//     every row range from n alone and the tree costs about one word per
//     leaf, not per record. The dimension a node splits is not stored
//     either: it is schema.CutDim of the node's depth and the schema.
//     A range of at most leafRows rows is not split by a cut.
//   - the leaves: the ranges that halving leaves at depth D, where D is
//     the first depth at which every range holds at most leafRows rows;
//     leaf j is node 2^D + j, so a descent names a leaf by its node. A
//     range of exactly leafRows rows one depth above D (a level whose
//     size is not a power-of-two multiple of a leaf) is halved without a
//     cut, into two leaves. Every leaf holds 16 to 32 rows (fewer only in
//     a level smaller than two leaves).
//   - box: per leaf, each column's reference (minimum), then each indexed
//     column's maximum: the leaf's frame, and its box.
//   - shape: per leaf, each column's shift | width<<8.
//   - offs: per leaf, the word of words its offsets start at. Every leaf
//     must start below word 2³² (32 GiB of words before it); a build past
//     that panics rather than wrap an offset (leafOffset).
//   - words: every leaf's offsets, leaf after leaf, each leaf's columns
//     one after another (schema.PackRun), and one spare word at the end.
//
// A descent prunes on the cuts, then tests each leaf it reaches by its
// box: a leaf whose box misses the window is skipped undecoded, one whose
// box lies inside it is handed over whole, undecoded and without a
// per-row test, and any other decodes its constrained columns, selects
// by them and is handed over with nothing else decoded (visitPacked, the
// read a sealed block gets).
//
// Width: a level whose every value fits 32 bits keeps its cuts and
// frames in 32-bit words (narrow), any other level in 64-bit words
// (wide) — the data decides, there is no knob, and only the carry
// decides it (carryLocked). The width is what a level stores, never what
// it hands over: every leaf decodes into the visit's 64-bit scratch, so
// a batch is []uint64 whatever the level. The build (partition,
// selectRow, the frame kernel) is written once, generic over the word.
// Partition order does not depend on the width: a quickselect compares
// the same clamped coordinates either way.
//
// Rows hold RAW attribute values, and so do the boxes. The cuts are
// coordinates clamped to the schema bounds; a traversal never clamps a
// row, it unclamps the query rectangle once instead (window, store.go).
//
// View contract. A batch (Sharded.VisitBatches, schema.Batch) is a
// packed view of one leaf: the leaf's words and column readers, the
// selection, and the columns the read decoded to test — no other. It has
// two ways out: Rows decodes the rest and returns the rows, for a
// consumer that needs values (the aggregate fold, the repeat probe, the
// content-id and replica paths, Visit and Query); Frames and Pack give
// the selection as one group at the leaf's own frames, decoding nothing
// they send (wire.Groups.AppendBatch, a responder's answer). The view,
// its rows and its selection are the visit's scratch: one decode buffer
// per visit, reused for every leaf, so fn may read them only until it
// returns and must copy what it keeps. A record
// handed out (Sharded's Visit, Query, All) is a capped view
// words[b : b+arity : b+arity] of a fresh copy — one per batch, of the
// selected rows, for Visit and Query; one per leaf for All — never of
// the scratch: it is read-only, may be retained for any length of time
// (it pins its copy until dropped), and appending to it reallocates
// instead of touching the neighbouring row.
//
// Static is immutable after construction and therefore trivially safe
// for any number of concurrent readers, each decoding into its own
// scratch. Exact median splits halve the row range at every step
// whatever the insertion order, so the depth is at most
// ceil(log2(n/leafRows)) and the fixed traversal stack below is provably
// sufficient for any n an int32 row index can address; the packed words'
// 2³² limit binds first only for a level whose rows need more than 128
// bits each.
type Static struct {
	*geom
	n      int
	narrow arena[uint32] // the level when every value fits 32 bits
	wide   arena[uint64] // the level otherwise; at most one of the two is set
}

// geom is what every level of one ladder shares: the schema's bounds,
// indexed dimensionality, arity and TimeDim (the dimension
// schema.CutDim favours).
type geom struct {
	bounds []uint64
	dims   int
	arity  int
	time   int
}

func newGeom(sch *schema.Schema) geom {
	return geom{bounds: sch.Bounds(), dims: sch.Dims(), arity: sch.Arity(), time: sch.TimeDim()}
}

// word is the width a level stores its cuts and boxes in, and the width
// the carry that builds it gathers its rows at (gather): the build
// (partition, selectRow, frameOf, packRun), the box test and the
// gather's decode are generic over it. No read is: every leaf decodes
// into 64-bit rows.
type word interface{ uint32 | uint64 }

// arena is one level's storage at word width W: the implicit BFS split
// values (cuts[0] is unused) — clamped coordinates and therefore no
// wider than the rows — and the packed leaves (Static).
type arena[W word] struct {
	cuts  []W
	box   []W      // stride arity+dims: references, then indexed maxima
	shape []uint16 // stride arity: shift | width<<8
	offs  []uint32 // one per leaf
	words []uint64
}

// leafRows is the largest row range a traversal reads as one leaf
// instead of splitting. Like tailRows it is a fixed constant: 16, 32
// and 64 were measured once (EXPERIMENTS.md "Ladder of leaf-bucketed
// arenas") and 32 kept, and 16 read worse again once leaves were
// selected in batches (EXPERIMENTS.md "One scan per leaf"). It also
// sizes a visit's selection and decode scratch.
const leafRows = 32

// staticStackCap bounds the iterative traversal stack. The descent
// stacks at most one right child per level, and the leaves' depth is
// <= ceil(log2(n/leafRows)) + 1 <= 27 for n <= 2^31 (the int32 row range).
const staticStackCap = 40

// sframe is one pending subtree of the iterative traversal: node i of
// the implicit tree, the row range it covers and its depth (the root's
// is 0), which with the schema fixes the dimension it splits.
type sframe struct {
	node, lo, hi, depth int32
}

// highBits is the OR of the high halves of rec's values: zero iff
// every value fits 32 bits.
func highBits(rec []uint64) uint64 {
	var or uint64
	for _, v := range rec {
		or |= v
	}
	return or >> 32
}

// appendWords appends src to dst in dst's width. Narrowing is exact only
// for words that fit: the carry narrows only runs whose high halves are
// all zero (tail.high, isWide).
func appendWords[W word](dst []W, src []uint64) []W {
	n := len(dst)
	dst = slices.Grow(dst, len(src))[:n+len(src)]
	for i, v := range src {
		dst[n+i] = W(v)
	}
	return dst
}

// newLevel makes rows (stride g.arity) a level at their width: it
// permutes them into partition order in place, recording the cuts, and
// packs every leaf. rows is scratch afterwards; the level keeps none of
// it.
func newLevel[W word](g *geom, rows []W) *Static {
	n := len(rows) / g.arity
	var a arena[W]
	if n > leafRows {
		a.cuts = make([]W, cutsLen(n))
		partition(g, rows, a.cuts, 1, 0, n, 0)
	}
	a.pack(g, rows, n)
	s := &Static{geom: g, n: n}
	switch a := any(a).(type) {
	case arena[uint32]:
		s.narrow = a
	case arena[uint64]:
		s.wide = a
	}
	return s
}

// cutsLen is the implicit tree's size for n rows: internal nodes sit at
// depths whose largest range ceil(n/2^depth) still exceeds a leaf, and
// depth k occupies the indices [2^k, 2^(k+1)). It is also the number of
// leaves of a level of n >= 1 rows.
func cutsLen(n int) int {
	size := 1
	for ; n > leafRows; n = (n + 1) / 2 {
		size *= 2
	}
	return size
}

// leafRange returns leaf j's rows [lo, hi) in a level of n rows and
// 2^depth leaves: the path to node 2^depth + j, halving as a descent does.
func leafRange(n, depth, j int) (lo, hi int) {
	hi = n
	for d := depth - 1; d >= 0; d-- {
		if mid := lo + (hi-lo)/2; j>>d&1 == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}

// pack frames every leaf of rows (n rows in partition order) and packs
// it. A first pass writes each leaf's frame into the header slices and
// sums the words its offsets fill, so the words are allocated once, at
// their size; a second packs each leaf from its header.
func (a *arena[W]) pack(g *geom, rows []W, n int) {
	if n == 0 {
		return
	}
	leaves, stride := cutsLen(n), g.arity+g.dims
	depth := bits.TrailingZeros(uint(leaves))
	a.box = make([]W, leaves*stride)
	a.shape = make([]uint16, leaves*g.arity)
	a.offs = make([]uint32, leaves)
	var buf [maxCols]schema.Frame
	total := 0
	for j := range leaves {
		lo, hi := leafRange(n, depth, j)
		frames := schema.FramesOf(buf[:0], rows[lo*g.arity:hi*g.arity], nil, g.arity)
		box, shape := a.box[j*stride:(j+1)*stride], a.shape[j*g.arity:(j+1)*g.arity]
		for c, f := range frames {
			box[c], shape[c] = W(f.Ref), uint16(f.Shift|f.Width<<8)
			if c < g.dims {
				box[g.arity+c] = W(f.Hi)
			}
		}
		a.offs[j] = leafOffset(total)
		total += schema.PackedWords(hi-lo, frames)
	}
	a.words = make([]uint64, total+1)
	for j := range leaves {
		lo, hi := leafRange(n, depth, j)
		frames := a.frames(g, j, buf[:0])
		schema.PackRun(a.words[a.offs[j]:], rows[lo*g.arity:hi*g.arity], nil, g.arity, frames)
	}
}

// leafOffset is the word a leaf's offsets start at, as offs keeps it.
// A leaf that would start at word 2³² or later panics the build.
func leafOffset(total int) uint32 {
	if uint64(total) > math.MaxUint32 {
		panic("store: a level's packed words reach 2^32")
	}
	return uint32(total)
}

// frames appends leaf j's column frames to dst; a maximum is known for
// the indexed columns only.
func (a *arena[W]) frames(g *geom, j int, dst []schema.Frame) []schema.Frame {
	box, shape := a.box[j*(g.arity+g.dims):], a.shape[j*g.arity:]
	for c := 0; c < g.arity; c++ {
		f := schema.Frame{Ref: uint64(box[c]), Shift: uint(shape[c] & 0xff), Width: uint(shape[c] >> 8)}
		if c < g.dims {
			f.Hi = uint64(box[g.arity+c])
		}
		dst = append(dst, f)
	}
	return dst
}

// columns appends the column readers of leaf j, of n rows, to cols.
func (a *arena[W]) columns(g *geom, j, n int, cols []schema.Column) []schema.Column {
	box, shape := a.box[j*(g.arity+g.dims):], a.shape[j*g.arity:]
	start := 64 * uint(a.offs[j]) // a bit position past 2³²: widen before the multiply
	for c := 0; c < g.arity; c++ {
		width := uint(shape[c] >> 8)
		cols = append(cols, schema.NewColumn(uint64(box[c]), uint(shape[c]&0xff), width, start))
		start += uint(n) * width
	}
	return cols
}

// partition median-splits rows [lo, hi), node's range at depth, on the
// dimension schema.CutDim schedules there and recurses: afterwards every
// row of [lo, mid) is <= cuts[node] <= every row of [mid, hi) on that
// dimension's clamped coordinate.
func partition[W word](g *geom, rows, cuts []W, node, lo, hi, depth int) {
	if hi-lo <= leafRows {
		return
	}
	dim := schema.CutDim(depth, g.dims, g.time)
	mid := lo + (hi-lo)/2
	b := W(min(g.bounds[dim], uint64(^W(0)))) // a bound past W's range clamps nothing W holds
	selectRow(rows, g.arity, lo, hi-1, mid, dim, b)
	cuts[node] = min(rows[mid*g.arity+dim], b)
	partition(g, rows, cuts, 2*node, lo, mid, depth+1)
	partition(g, rows, cuts, 2*node+1, mid, hi, depth+1)
}

// selectRow is quickselect over the rows lo..hi (inclusive), swapping
// whole rows in place: afterwards row n holds the n-th smallest
// coordinate on dim clamped to b, every row before it is <= and every
// row after it >=. The comparisons, and so the swaps, are the same at
// either width.
func selectRow[W word](rows []W, arity, lo, hi, n, dim int, b W) {
	at := func(i int) W { return min(rows[i*arity+dim], b) }
	for lo < hi {
		// Median-of-three pivot to dodge sorted-input quadratic blowup.
		x, y, z := at(lo), at(lo+(hi-lo)/2), at(hi)
		pivot := max(min(x, y), min(max(x, y), z))
		i, j := lo, hi
		for i <= j {
			for at(i) < pivot {
				i++
			}
			for at(j) > pivot {
				j--
			}
			if i <= j {
				ri, rj := rows[i*arity:i*arity+arity], rows[j*arity:j*arity+arity]
				for k := range ri {
					ri[k], rj[k] = rj[k], ri[k]
				}
				i++
				j--
			}
		}
		if n <= j {
			hi = j
		} else if n >= i {
			lo = i
		} else {
			return
		}
	}
}

// Len returns the number of stored records.
func (s *Static) Len() int { return s.n }

// isWide reports whether the level keeps 64-bit frames and decodes into
// 64-bit rows: some value it holds needs more than 32 bits.
func (s *Static) isWide() bool { return s.wide.offs != nil }

// leaves is the number of leaves the level packs.
func (s *Static) leaves() int { return len(s.narrow.offs) + len(s.wide.offs) }

// bytes is the level's footprint: its cuts, leaf headers and packed
// offsets.
func (s *Static) bytes() int {
	return s.narrow.bytes() + s.wide.bytes()
}

func (a *arena[W]) bytes() int {
	size := bits.Len64(uint64(^W(0))) / 8
	return size*(len(a.cuts)+len(a.box)) + 2*len(a.shape) + 4*len(a.offs) + 8*len(a.words)
}

// visit calls fn once per leaf that holds records inside the opened
// window, in partition order, with a packed view of the leaf over sc
// and the ascending word offsets of those records among its rows (the
// view contract above); a nil fn counts the matches into sc.count
// (visitPacked). The level's width picks the arena, nothing more.
func (s *Static) visit(w *window, sc *scratch, fn func(*schema.Batch)) {
	if s.isWide() {
		s.wide.visit(s.geom, s.n, w, sc, fn)
	} else {
		s.narrow.visit(s.geom, s.n, w, sc, fn)
	}
}

// visit is a depth-first descent to the leaves that follows a lone
// surviving child in place and stacks the right child only where both
// survive; a range of at most a leaf that lies above the leaves' depth
// has no cut, and both its halves survive. An open window is never
// inverted, so at least one child always survives a cut. Each leaf
// reached is read by its box (visitLeaf) into sc.
func (a *arena[W]) visit(g *geom, n int, w *window, sc *scratch, fn func(*schema.Batch)) {
	if n == 0 {
		return
	}
	depth := int32(bits.TrailingZeros(uint(len(a.offs))))
	var stack [staticStackCap]sframe
	sp := 0
	f := sframe{node: 1, hi: int32(n)}
	for {
		for f.depth < depth {
			mid := f.lo + (f.hi-f.lo)/2
			left, right := sframe{2 * f.node, f.lo, mid, f.depth + 1}, sframe{2*f.node + 1, mid, f.hi, f.depth + 1}
			if f.hi-f.lo > leafRows {
				dim := schema.CutDim(int(f.depth), g.dims, g.time)
				cut := uint64(a.cuts[f.node])
				// Equal coordinates may sit on either side of a median split,
				// so both prunes admit equality.
				if w.lo[dim] > cut {
					f = right
					continue
				}
				if w.hi[dim] < cut {
					f = left
					continue
				}
			}
			stack[sp] = right
			sp++
			f = left
		}
		a.visitLeaf(g, int(f.node)-1<<depth, int(f.hi-f.lo), w, sc, fn)
		if sp == 0 {
			return
		}
		sp--
		f = stack[sp]
	}
}

// visitLeaf reads leaf j, of n rows, by its box: skipped when the box
// misses the window, handed over whole when it lies inside, read by
// visitPacked otherwise.
func (a *arena[W]) visitLeaf(g *geom, j, n int, w *window, sc *scratch, fn func(*schema.Batch)) {
	skip, in := boxTest(w.con, a.box[j*(g.arity+g.dims):], 1, g.arity)
	if skip {
		return
	}
	sc.cols = a.columns(g, j, n, sc.cols[:0])
	visitPacked(sc, sc.cols, a.words, n, w.con, in, fn)
}

// appendLevel appends the level's rows to dst in dst's word width, in
// partition order, decoding leaf by leaf. Narrowing is exact only when
// the level is not wide.
func appendLevel[D word](dst []D, s *Static) []D {
	for j, leaves := 0, s.leaves(); j < leaves; j++ {
		dst = appendLeaf(dst, s, j)
	}
	return dst
}

// appendLeaf appends leaf j's rows to dst in dst's word width.
func appendLeaf[D word](dst []D, s *Static, j int) []D {
	lo, hi := leafRange(s.n, bits.TrailingZeros(uint(s.leaves())), j)
	var buf [maxCols]schema.Column
	if s.isWide() {
		return decodeRows(dst, s.wide.columns(s.geom, j, hi-lo, buf[:0]), s.wide.words, 0, hi-lo)
	}
	return decodeRows(dst, s.narrow.columns(s.geom, j, hi-lo, buf[:0]), s.narrow.words, 0, hi-lo)
}

// each streams every record in partition order until yield returns
// false, and reports whether it ran to the end: every leaf is decoded
// into a fresh copy (the view contract).
func (s *Static) each(yield func(rec schema.Record) bool) bool {
	for j, leaves := 0, s.leaves(); j < leaves; j++ {
		if !eachRow(appendLeaf[uint64](nil, s, j), s.arity, yield) {
			return false
		}
	}
	return true
}
