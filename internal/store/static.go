package store

import (
	"slices"

	"mind/internal/schema"
)

// Static is a bulk-loaded, immutable k-d index over one flat arena — the
// one index structure of the store engine (DESIGN.md §4h): every level
// of a version's ladder is a Static. Everything a traversal touches lives
// in two dense, pointer-free slices the garbage collector never scans
// (an arena):
//
//   - rows: the full records (indexed attributes first, payload after),
//     stride arity, in k-d PARTITION ORDER — every subtree of the index
//     is one contiguous row range, and recursion stops at leaves of at
//     most leafRows rows, the unit a visit selects from and hands over
//     as one batch;
//   - cuts: the split values as an implicit BFS tree — root at 1, the
//     children of node i at 2i and 2i+1; nil for a level of at most
//     leafRows rows, scanned whole. Node i over rows [lo, hi) splits at
//     mid = lo+(hi-lo)/2 into [lo, mid) and [mid, hi), so a descent
//     re-derives every row range from n alone and the tree costs about
//     one word per leaf, not per record. The dimension a node splits is
//     not stored either: it is schema.CutDim of the node's depth and the
//     schema.
//
// Width: a level whose every value fits 32 bits keeps both slices in
// 32-bit words (narrow), any other level in 64-bit words (wide) — the
// data decides, there is no knob. The kernels (partition, selectRow,
// visit, selectRows, scanBatches, eachRow) are written once, generic
// over the word, and a batch hands its consumer whichever word slice
// the level keeps (schema.Rows). Partition order does not depend on the
// width: a quickselect compares the same clamped coordinates either way.
//
// Rows hold RAW attribute values. The cuts are coordinates clamped to
// the schema bounds; a traversal never clamps a row, it unclamps the
// query rectangle once instead (window, store.go).
//
// View contract: a record handed out (Visit, Query, All) is a capped
// 64-bit view words[b : b+arity : b+arity] — of the immutable arena
// itself when the level is wide, of a fresh copy (one per leaf-sized
// run) when it is narrow — and a batch's rows (VisitBatches) a view of a run of whole
// records of the arena. It is read-only, may be retained for any length
// of time (it pins its whole arena or copy until dropped), and appending
// to it reallocates instead of touching the neighbouring row.
//
// Static is immutable after construction and therefore trivially safe
// for any number of concurrent readers. Exact median splits halve the
// row range at every step whatever the insertion order, so the depth is
// at most ceil(log2(n/leafRows)) and the fixed traversal stack below is
// provably sufficient for any n an int32 row index can address.
type Static struct {
	*geom
	narrow arena[uint32] // the level's rows when every value fits 32 bits
	wide   arena[uint64] // its rows otherwise; exactly one of the two is set
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

// arena is one level's storage at word width W: the raw records in
// partition order, stride arity, and the implicit BFS split values
// (cuts[0] is unused), clamped coordinates and therefore no wider than
// the rows.
type arena[W schema.Word] struct {
	rows []W
	cuts []W
}

// leafRows is the largest row range a traversal scans instead of
// splitting. Like tailRows it is a fixed constant: 16, 32 and 64
// were measured once (EXPERIMENTS.md "Ladder of leaf-bucketed arenas")
// and 32 kept — a leaf of 40 B rows is 20 cache lines read in order,
// of narrow 20 B rows 10 — and 16 read worse again once leaves were
// selected in batches (EXPERIMENTS.md "One scan per leaf"). It also
// sizes a visit's selection scratch.
const leafRows = 32

// staticStackCap bounds the iterative traversal stack. The descent
// stacks at most one right child per level, and the depth is
// <= ceil(log2(n/leafRows)) <= 26 for n <= 2^31 (the int32 row range).
const staticStackCap = 40

// sframe is one pending subtree of the iterative traversal: node i of
// the implicit tree, the row range it covers and its depth (the root's
// is 0), which with the schema fixes the dimension it splits.
type sframe struct {
	node, lo, hi, depth int32
}

// NewStatic bulk-loads a static index from recs, copying every record
// into the arena (exactly sch.Arity() attributes each — callers
// arity-check what they store), narrow when every value fits 32 bits.
// recs is neither retained nor reordered. An empty or nil recs yields
// an empty index.
func NewStatic(sch *schema.Schema, recs []schema.Record) *Static {
	g := newGeom(sch)
	var high uint64
	for _, rec := range recs {
		high |= highBits(rec[:min(len(rec), g.arity)])
	}
	if high == 0 {
		return newLevel(&g, copyRecs[uint32](recs, g.arity))
	}
	return newLevel(&g, copyRecs[uint64](recs, g.arity))
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

// copyRecs copies recs into one fresh arena of words W, arity words
// per record.
func copyRecs[W schema.Word](recs []schema.Record, arity int) []W {
	rows := make([]W, len(recs)*arity)
	for i, rec := range recs {
		row := rows[i*arity : (i+1)*arity]
		for k, v := range rec[:min(len(rec), arity)] {
			row[k] = W(v)
		}
	}
	return rows
}

// appendWords appends src to dst in dst's width: a plain copy when the
// widths agree, a per-word conversion otherwise. Narrowing is exact only
// for words that fit — callers narrow only runs whose high halves are
// all zero (highBits, tail.high).
func appendWords[D, S schema.Word](dst []D, src []S) []D {
	if same, ok := any(src).([]D); ok {
		return append(dst, same...)
	}
	n := len(dst)
	dst = slices.Grow(dst, len(src))[:n+len(src)]
	for i, v := range src {
		dst[n+i] = D(v)
	}
	return dst
}

// newLevel makes rows a level at their width, taking ownership of the
// arena, permuting it into partition order and recording the cuts.
// There is no scratch beyond the cuts themselves.
func newLevel[W schema.Word](g *geom, rows []W) *Static {
	a := arena[W]{rows: rows}
	if n := len(rows) / g.arity; n > leafRows {
		a.cuts = make([]W, cutsLen(n))
		a.partition(g, 1, 0, n, 0)
	}
	s := &Static{geom: g}
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
// depth k occupies the indices [2^k, 2^(k+1)).
func cutsLen(n int) int {
	size := 1
	for ; n > leafRows; n = (n + 1) / 2 {
		size *= 2
	}
	return size
}

// partition median-splits rows [lo, hi), node's range at depth, on the
// dimension schema.CutDim schedules there and recurses: afterwards every
// row of [lo, mid) is <= cuts[node] <= every row of [mid, hi) on that
// dimension's clamped coordinate.
func (a *arena[W]) partition(g *geom, node, lo, hi, depth int) {
	if hi-lo <= leafRows {
		return
	}
	dim := schema.CutDim(depth, g.dims, g.time)
	mid := lo + (hi-lo)/2
	b := W(min(g.bounds[dim], uint64(^W(0)))) // a bound past W's range clamps nothing W holds
	a.selectRow(g.arity, lo, hi-1, mid, dim, b)
	a.cuts[node] = min(a.rows[mid*g.arity+dim], b)
	a.partition(g, 2*node, lo, mid, depth+1)
	a.partition(g, 2*node+1, mid, hi, depth+1)
}

// selectRow is quickselect over the rows lo..hi (inclusive) of the
// arena, swapping whole rows in place: afterwards row n holds the n-th
// smallest coordinate on dim clamped to b, every row before it is <=
// and every row after it >=. The comparisons, and so the swaps, are the
// same at either width.
func (a *arena[W]) selectRow(arity, lo, hi, n, dim int, b W) {
	rows := a.rows
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
func (s *Static) Len() int { return (len(s.narrow.rows) + len(s.wide.rows)) / s.arity }

// isWide reports whether the level keeps 64-bit rows: some value it
// holds needs more than 32 bits.
func (s *Static) isWide() bool { return s.wide.rows != nil }

// bytes is the level's footprint: its rows and its cuts.
func (s *Static) bytes() int {
	return 4*(len(s.narrow.rows)+len(s.narrow.cuts)) + 8*(len(s.wide.rows)+len(s.wide.cuts))
}

// VisitBatches calls fn once per leaf that holds records inside rect, in
// partition order, with the leaf's rows and the ascending word offsets of
// those records among them: record j is rows[sel[j] : sel[j]+arity] of
// whichever word slice the batch carries. It is THE static traversal —
// Visit, Query, QueryAppend and Count are wrappers — and performs no
// allocation: the stack is a fixed local array, the selection is
// recycled and rows is a view of the arena (see the view contract
// above). sel is reused for the next batch, so fn must not retain it.
func (s *Static) VisitBatches(rect schema.Rect, fn func(rows schema.Rows, sel []int32)) {
	var buf windowBuf
	if w, ok := openWindow(s.bounds, rect, &buf); ok {
		sel := selPool.Get().(*selection)
		s.visit(&w, sel, fn)
		selPool.Put(sel)
	}
}

// Visit calls fn with every record inside rect, in partition order.
func (s *Static) Visit(rect schema.Rect, fn func(schema.Record)) {
	s.VisitBatches(rect, recordsOf(s.arity, fn))
}

// visit is VisitBatches on an already opened window, at the level's
// width.
func (s *Static) visit(w *window, sel *selection, fn func(rows schema.Rows, sel []int32)) {
	if s.isWide() {
		s.wide.visit(s.geom, w, sel, fn)
	} else {
		s.narrow.visit(s.geom, w, sel, fn)
	}
}

// visit is a depth-first descent that follows a lone surviving child in
// place and stacks the right child only where both survive; an arena
// without cuts is one scan in leaf-sized runs. An open window is never
// inverted, so at least one child always survives.
func (a *arena[W]) visit(g *geom, w *window, sel *selection, fn func(rows schema.Rows, sel []int32)) {
	if a.cuts == nil {
		scanBatches(a.rows, g.arity, w.con, sel, fn)
		return
	}
	var stack [staticStackCap]sframe
	sp := 0
	f := sframe{node: 1, hi: int32(len(a.rows) / g.arity)}
	for {
		for f.hi-f.lo > leafRows {
			dim := schema.CutDim(int(f.depth), g.dims, g.time)
			cut, mid := uint64(a.cuts[f.node]), f.lo+(f.hi-f.lo)/2
			// Equal coordinates may sit on either side of a median split,
			// so both prunes admit equality.
			right := sframe{2*f.node + 1, mid, f.hi, f.depth + 1}
			if w.lo[dim] > cut {
				f = right
				continue
			}
			if w.hi[dim] >= cut {
				stack[sp] = right
				sp++
			}
			f = sframe{2 * f.node, f.lo, mid, f.depth + 1}
		}
		scanBatches(a.rows[int(f.lo)*g.arity:int(f.hi)*g.arity], g.arity, w.con, sel, fn)
		if sp == 0 {
			return
		}
		sp--
		f = stack[sp]
	}
}

// QueryAppend resolves rect, appending matches to out. Beyond out's
// growth — at most once per batch — and a narrow batch's copy (the view
// contract) it performs no allocation.
func (s *Static) QueryAppend(rect schema.Rect, out []schema.Record) []schema.Record {
	s.VisitBatches(rect, func(rows schema.Rows, sel []int32) { out = appendRecords(out, rows, sel, s.arity) })
	return out
}

// Query resolves an orthogonal range query.
func (s *Static) Query(rect schema.Rect) []schema.Record {
	return s.QueryAppend(rect, nil)
}

// Count returns the number of records inside rect without materializing
// them.
func (s *Static) Count(rect schema.Rect) int {
	n := 0
	s.VisitBatches(rect, func(_ schema.Rows, sel []int32) { n += len(sel) })
	return n
}

// All streams every record in row order; stops early if yield returns
// false.
func (s *Static) All(yield func(rec schema.Record) bool) { s.each(yield) }

// each is All reporting whether it ran to the end.
func (s *Static) each(yield func(rec schema.Record) bool) bool {
	if s.isWide() {
		return eachRow(s.wide.rows, s.arity, yield)
	}
	return eachRow(s.narrow.rows, s.arity, yield)
}
