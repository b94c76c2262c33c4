package store

import "mind/internal/schema"

// Static is a bulk-loaded, immutable k-d index over one flat arena — the
// one index structure of the store engine (DESIGN.md §4h): every level
// of a version's ladder is a Static. Everything a traversal touches lives
// in two dense, pointer-free slices the garbage collector never scans:
//
//   - rows: the full records (indexed attributes first, payload after),
//     stride arity, in k-d PARTITION ORDER — every subtree of the index
//     is one contiguous row range, and recursion stops at leaves of at
//     most leafRows rows, the unit a visit selects from and hands over
//     as one batch;
//   - cuts: the split values as an implicit BFS tree — root at 1, the
//     children of node i at 2i and 2i+1; nil for a level scanned whole
//     (at most leafRows rows, or a tail an appending ladder sealed,
//     shard.go). Node i over rows [lo, hi) splits at
//     mid = lo+(hi-lo)/2 into [lo, mid) and [mid, hi), so a descent
//     re-derives every row range from n alone and the tree costs about
//     one word per leaf, not per record. The dimension a node splits is
//     not stored either: it is schema.CutDim of the node's depth and the
//     schema.
//
// Rows hold RAW attribute values. The cuts are coordinates clamped to
// the schema bounds; a traversal never clamps a row, it unclamps the
// query rectangle once instead (window, store.go).
//
// View contract: a record handed out (Visit, Query, All) is a capped
// view rows[b : b+arity : b+arity] of the immutable arena, and a batch's
// rows (VisitBatches) a view of a run of whole records. It is
// read-only, may be retained for any length of time (it pins its whole
// arena until dropped), and appending to it reallocates instead of
// touching the neighbouring row.
//
// Static is immutable after construction and therefore trivially safe
// for any number of concurrent readers. Exact median splits halve the
// row range at every step whatever the insertion order, so the depth is
// at most ceil(log2(n/leafRows)) and the fixed traversal stack below is
// provably sufficient for any n an int32 row index can address.
type Static struct {
	bounds []uint64
	dims   int
	arity  int
	time   int      // the schema's TimeDim: the dimension schema.CutDim favours
	rows   []uint64 // raw records in partition order, stride arity
	cuts   []uint64 // implicit BFS split values; cuts[0] is unused
}

// leafRows is the largest row range a traversal scans instead of
// splitting. Like tailRows it is a fixed constant: 16, 32 and 64
// were measured once (EXPERIMENTS.md "Ladder of leaf-bucketed arenas")
// and 32 kept — a leaf of 40 B rows is 20 cache lines read in order —
// and 16 read worse again once leaves were selected in batches
// (EXPERIMENTS.md "One scan per leaf"). It also sizes a visit's
// selection scratch.
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
// arity-check what they store). recs is neither retained nor reordered.
// An empty or nil recs yields an empty index.
func NewStatic(sch *schema.Schema, recs []schema.Record) *Static {
	arity := sch.Arity()
	rows := make([]uint64, len(recs)*arity)
	for i, rec := range recs {
		copy(rows[i*arity:(i+1)*arity], rec)
	}
	return buildStatic(sch.Bounds(), sch.Dims(), arity, sch.TimeDim(), rows)
}

// buildStatic indexes rows IN PLACE — it takes ownership of the arena,
// permutes it into partition order and records the cuts. There is no
// scratch beyond the cuts themselves.
func buildStatic(bounds []uint64, dims, arity, time int, rows []uint64) *Static {
	s := &Static{bounds: bounds, dims: dims, arity: arity, time: time, rows: rows}
	if n := s.Len(); n > leafRows {
		s.cuts = make([]uint64, cutsLen(n))
		s.partition(1, 0, n, 0)
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
func (s *Static) partition(node, lo, hi, depth int) {
	if hi-lo <= leafRows {
		return
	}
	dim := schema.CutDim(depth, s.dims, s.time)
	mid := lo + (hi-lo)/2
	s.selectRow(lo, hi-1, mid, dim)
	s.cuts[node] = min(s.rows[mid*s.arity+dim], s.bounds[dim])
	s.partition(2*node, lo, mid, depth+1)
	s.partition(2*node+1, mid, hi, depth+1)
}

// selectRow is quickselect over the rows lo..hi (inclusive) of the
// arena, swapping whole rows in place: afterwards row n holds the n-th
// smallest bounds-clamped coordinate on dim, every row before it is <=
// and every row after it >=.
func (s *Static) selectRow(lo, hi, n, dim int) {
	b, a, rows := s.bounds[dim], s.arity, s.rows
	at := func(i int) uint64 { return min(rows[i*a+dim], b) }
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
				ri, rj := rows[i*a:i*a+a], rows[j*a:j*a+a]
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
func (s *Static) Len() int { return len(s.rows) / s.arity }

// VisitBatches calls fn once per leaf that holds records inside rect, in
// partition order, with the leaf's rows and the ascending word offsets of
// those records among them: record j is rows[sel[j] : sel[j]+arity]. It
// is THE static traversal — Visit, Query, QueryAppend and Count are
// wrappers — and performs no allocation: the stack is a fixed local
// array, the selection is recycled and rows is a view of the arena (see
// the view contract above). sel is reused for the next batch, so fn must
// not retain it.
func (s *Static) VisitBatches(rect schema.Rect, fn func(rows []uint64, sel []int32)) {
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

// visit is VisitBatches on an already opened window: a depth-first
// descent that follows a lone surviving child in place and stacks the
// right child only where both survive; a level without cuts is one
// scan in leaf-sized runs. An open window is never inverted, so at least
// one child always survives.
func (s *Static) visit(w *window, sel *selection, fn func(rows []uint64, sel []int32)) {
	if s.cuts == nil {
		scanBatches(s.rows, s.arity, w.con, sel, fn)
		return
	}
	var stack [staticStackCap]sframe
	sp := 0
	f := sframe{node: 1, hi: int32(s.Len())}
	for {
		for f.hi-f.lo > leafRows {
			dim := schema.CutDim(int(f.depth), s.dims, s.time)
			cut, mid := s.cuts[f.node], f.lo+(f.hi-f.lo)/2
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
		scanBatches(s.rows[int(f.lo)*s.arity:int(f.hi)*s.arity], s.arity, w.con, sel, fn)
		if sp == 0 {
			return
		}
		sp--
		f = stack[sp]
	}
}

// QueryAppend resolves rect, appending matches to out. Beyond out's
// growth — at most once per batch — it performs no allocation.
func (s *Static) QueryAppend(rect schema.Rect, out []schema.Record) []schema.Record {
	s.VisitBatches(rect, func(rows []uint64, sel []int32) { out = appendRecords(out, rows, sel, s.arity) })
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
	s.VisitBatches(rect, func(_ []uint64, sel []int32) { n += len(sel) })
	return n
}

// All streams every record in row order; stops early if yield returns
// false.
func (s *Static) All(yield func(rec schema.Record) bool) {
	eachRow(s.rows, s.arity, yield)
}
