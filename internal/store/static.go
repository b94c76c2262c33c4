package store

import "mind/internal/schema"

// Static is a bulk-loaded, immutable k-d index over a flat node array —
// the cache-conscious half of the static+delta engine (DESIGN.md §4h).
// Where KD chases heap pointers (one cache miss per visited node on a
// cold tree), Static keeps everything a traversal touches in two dense,
// pointer-free slices the garbage collector never scans:
//
//   - rows: the full record of every node (indexed attributes first,
//     payload after), node-major with stride arity — the inside-rect
//     test, the prune test and the answer all read the same cache line;
//   - kids: two int32 child slot indices per node (-1 = none) — indices
//     into the same arrays, not pointers, so the whole index relocates
//     and shares cleanly.
//
// Rows hold RAW attribute values. The tree is built on coordinates
// clamped to the schema bounds; a traversal never clamps a node, it
// unclamps the query rectangle once instead (unclamp, store.go).
//
// View contract: a record handed out (Visit, Query, All) is a capped
// view rows[b : b+arity : b+arity] of the immutable arena. It is
// read-only, may be retained for any length of time (it pins its whole
// arena until dropped), and appending to it reallocates instead of
// touching the neighbouring row.
//
// Nodes are laid out in the van Emde Boas (cache-oblivious) order: the
// tree of height h is split into a top subtree of height h/2 and its
// bottom subtrees, each laid out contiguously and recursively. Any
// root-to-leaf walk then crosses O(log_B n) cache blocks for every block
// size B simultaneously — without knowing B — instead of the O(log n)
// misses of a pointer tree. The top of the tree, which every query
// traverses, occupies one contiguous prefix that stays resident in L1.
//
// Static is immutable after construction and therefore trivially safe
// for any number of concurrent readers. Median bulk loading makes the
// tree perfectly balanced: height <= floor(log2 n)+1 regardless of
// insertion order, so the fixed traversal stack below is provably
// sufficient for any n representable in an int32 slot.
type Static struct {
	bounds []uint64
	dims   int
	arity  int
	rows   []uint64 // raw records, node-major, stride arity
	kids   []int32  // 2 per node: left, right (-1 = none); root is slot 0
}

// staticStackCap bounds the iterative traversal stack. DFS over a binary
// tree pushing both children holds at most height+1 frames, and the
// median-built height is <= floor(log2 n)+1 <= 32 for n <= 2^31 (the
// int32 slot range).
const staticStackCap = 40

// sframe is one pending subtree of the iterative traversal.
type sframe struct {
	node int32
	dim  int32
}

// NewStatic bulk-loads a static index from recs, copying every record
// into the arena (exactly sch.Arity() attributes each — callers
// arity-check what they store). The loader permutes recs in place; the
// records themselves are not retained. An empty or nil recs yields an
// empty index.
func NewStatic(sch *schema.Schema, recs []schema.Record) *Static {
	return newStatic(sch, sch.Bounds(), recs)
}

// newStatic is the engine-internal constructor reusing a precomputed
// bounds slice.
func newStatic(sch *schema.Schema, bounds []uint64, recs []schema.Record) *Static {
	s := &Static{bounds: bounds, dims: sch.Dims(), arity: sch.Arity()}
	s.load(recs)
	return s
}

// load builds the arrays: median-partition recs into a balanced logical
// k-d tree, then assign physical slots in van Emde Boas order.
func (s *Static) load(recs []schema.Record) {
	n := len(recs)
	if n == 0 {
		return
	}
	b := &staticBuilder{
		recs:   recs,
		bounds: s.bounds,
		dims:   s.dims,
		lkid:   make([]int32, n),
		rkid:   make([]int32, n),
		phys:   make([]int32, n),
	}
	root := b.buildSeg(0, n, 0)
	height := 0
	for m := n; m > 0; m >>= 1 {
		height++
	}
	b.place(root, height)

	// Materialize the physical arrays from the logical tree.
	s.rows = make([]uint64, n*s.arity)
	s.kids = make([]int32, 2*n)
	for logical, rec := range recs {
		p := int(b.phys[logical])
		copy(s.rows[p*s.arity:(p+1)*s.arity], rec)
		s.kids[2*p] = b.physOf(b.lkid[logical])
		s.kids[2*p+1] = b.physOf(b.rkid[logical])
	}
}

// staticBuilder holds the bulk-load scratch state. Logical node ids are
// positions in recs after partitioning; phys maps them to vEB slots.
type staticBuilder struct {
	recs   []schema.Record
	bounds []uint64
	dims   int
	lkid   []int32 // logical left child, -1 = none
	rkid   []int32
	phys   []int32
	next   int32
}

func (b *staticBuilder) physOf(logical int32) int32 {
	if logical < 0 {
		return -1
	}
	return b.phys[logical]
}

// buildSeg median-partitions recs[lo:hi) on the cycling dimension and
// returns the logical root (the median's position). Exact median splits
// give a perfectly balanced shape: both children hold at most
// ceil((len-1)/2) records.
func (b *staticBuilder) buildSeg(lo, hi, depth int) int32 {
	if lo >= hi {
		return -1
	}
	dim := depth % b.dims
	mid := lo + (hi-lo)/2
	selectNth(b.recs[lo:hi], mid-lo, dim, b.bounds)
	b.lkid[mid] = b.buildSeg(lo, mid, depth+1)
	b.rkid[mid] = b.buildSeg(mid+1, hi, depth+1)
	return int32(mid)
}

// place assigns vEB-order physical slots to the h levels of the logical
// subtree rooted at v: the top h/2 levels are placed (recursively vEB)
// first and contiguously, then each frontier subtree below them. The
// root of the whole index therefore lands in slot 0, and every
// recursive block occupies one contiguous slot range.
func (b *staticBuilder) place(v int32, h int) {
	if v < 0 {
		return
	}
	if h <= 1 {
		b.phys[v] = b.next
		b.next++
		return
	}
	top := h / 2
	b.place(v, top)
	b.frontier(v, top, h-top)
}

// frontier recurses to the nodes exactly `down` levels below v and
// places each as a bottom subtree of height h.
func (b *staticBuilder) frontier(v int32, down, h int) {
	if v < 0 {
		return
	}
	if down == 0 {
		b.place(v, h)
		return
	}
	b.frontier(b.lkid[v], down-1, h)
	b.frontier(b.rkid[v], down-1, h)
}

// Len returns the number of stored records.
func (s *Static) Len() int { return len(s.kids) / 2 }

// row returns slot p's record as a capped view of the arena.
func (s *Static) row(p int) schema.Record {
	b := p * s.arity
	return s.rows[b : b+s.arity : b+s.arity]
}

// Visit calls fn with every record inside rect, in traversal order. It
// is THE static traversal — Query, QueryAppend and Count are wrappers —
// and performs no allocation: the stack is a fixed local array and the
// records are views (see the view contract above).
func (s *Static) Visit(rect schema.Rect, fn func(schema.Record)) {
	var buf [maxStackDims]uint64
	if hi, ok := unclamp(s.bounds, rect, buf[:0]); ok {
		s.visit(rect.Lo, hi, fn)
	}
}

// visit is Visit on an already unclamped rectangle [lo, hi].
func (s *Static) visit(lo, hi []uint64, fn func(schema.Record)) {
	if len(s.kids) == 0 {
		return
	}
	dims := int32(s.dims)
	var stack [staticStackCap]sframe
	stack[0] = sframe{0, 0}
	sp := 1
	for sp > 0 {
		sp--
		f := stack[sp]
		rec := s.row(int(f.node))
		if inside(lo, hi, rec) {
			fn(rec)
		}
		// Equal coordinates may sit on either side of a median split, so
		// both prunes admit equality.
		d := int(f.dim)
		v := rec[d]
		nd := f.dim + 1
		if nd == dims {
			nd = 0
		}
		if l := s.kids[2*f.node]; l >= 0 && lo[d] <= v {
			stack[sp] = sframe{l, nd}
			sp++
		}
		if r := s.kids[2*f.node+1]; r >= 0 && hi[d] >= v {
			stack[sp] = sframe{r, nd}
			sp++
		}
	}
}

// QueryAppend resolves rect, appending matches to out. Beyond out's
// growth it performs no allocation.
func (s *Static) QueryAppend(rect schema.Rect, out []schema.Record) []schema.Record {
	s.Visit(rect, func(rec schema.Record) { out = append(out, rec) })
	return out
}

// Query resolves an orthogonal range query.
func (s *Static) Query(rect schema.Rect) []schema.Record {
	return s.QueryAppend(rect, nil)
}

// Count returns the number of records inside rect: a Visit that counts.
func (s *Static) Count(rect schema.Rect) int {
	n := 0
	s.Visit(rect, func(schema.Record) { n++ })
	return n
}

// All streams every record in slot order; stops early if yield returns
// false.
func (s *Static) All(yield func(rec schema.Record) bool) {
	for p, n := 0, s.Len(); p < n; p++ {
		if !yield(s.row(p)) {
			return
		}
	}
}
