package store

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"mind/internal/schema"
)

// KD is a k-d tree over the indexed dimensions of one schema. The split
// dimension cycles with depth. The tree self-balances by rebuilding with
// median splits whenever an insertion path exceeds a logarithmic depth
// bound, which keeps monotone insertion orders (timestamps, sequential
// prefixes) from degrading the tree into a list.
//
// KD is the pointer tree the store engine used before the ladder of
// Static arenas (shard.go). The engine no longer builds one; the type
// stays only as the standalone store the differential baselines in
// internal/baseline and two experiments still run on.
//
// Concurrency: KD is a single-writer / multi-reader structure. Insert
// serializes on wmu and only ever publishes fully initialized nodes
// through atomic child pointers, so readers (Query, Count, All, Len,
// Depth) run without any lock and never observe a torn tree. A reader
// sees a consistent snapshot as of the moment it loads a subtree root;
// concurrent inserts may or may not be visible, which matches the
// node-level contract (an unacknowledged insert has no visibility
// guarantee). Len is published only after the node is reachable, so a
// Len/Count pair read by a concurrent reader can trail but never lead
// the visible tree (TestKDLenNeverLeadsVisible). Rebuilds are
// copy-on-write: a balanced replacement tree is built from fresh nodes
// and swapped in with one atomic root store, so in-flight readers
// finish on the old tree and never block.
type KD struct {
	sch    *schema.Schema
	bounds []uint64 // per-dimension clamp, precomputed from the schema
	wmu    sync.Mutex
	root   atomic.Pointer[kdNode]
	size   atomic.Int64
	tick   uint64 // equal-coordinate tie-break state (under wmu)
}

// kdNode carries no materialized point: coordinates are computed on the
// fly from the record and the precomputed bounds (coord), which drops a
// per-insert slice allocation and shrinks nodes to record + two child
// pointers.
type kdNode struct {
	rec         schema.Record
	left, right atomic.Pointer[kdNode]
}

// NewKD creates an empty k-d store for the schema.
func NewKD(sch *schema.Schema) *KD {
	return &KD{sch: sch, bounds: sch.Bounds()}
}

// coord returns the record's clamped coordinate on dim.
func (t *KD) coord(rec schema.Record, dim int) uint64 {
	v := rec[dim]
	if v > t.bounds[dim] {
		v = t.bounds[dim]
	}
	return v
}

// Len returns the number of stored records.
func (t *KD) Len() int { return int(t.size.Load()) }

// depthLimit returns the rebuild threshold: generous enough that random
// orders never trigger it, tight enough that adversarial orders stay
// O(log n) after rebuild.
func depthLimit(size int) int {
	if size < 16 {
		return 16
	}
	return 3*bits.Len(uint(size)) + 4
}

// Insert adds a record.
func (t *KD) Insert(rec schema.Record) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	dims := t.sch.Dims()
	n := &kdNode{rec: rec}
	// size only moves under wmu, so Load+1 is this insert's ordinal; the
	// atomic publish happens AFTER the node is linked (below), so a
	// concurrent reader's Len() never exceeds the reachable record count.
	size := int(t.size.Load()) + 1
	cur := t.root.Load()
	if cur == nil {
		t.root.Store(n)
		t.size.Add(1)
		return
	}
	depth := 0
	for {
		dim := depth % dims
		c, cc := t.coord(rec, dim), t.coord(cur.rec, dim)
		goLeft := c < cc
		if c == cc {
			// Equal coordinates alternate sides. Sending them always
			// right builds a spine under duplicate-heavy streams
			// (replayed ingest frames, hot flow keys), tripping the
			// depth bound on every insert and degrading to a full
			// rebuild per record; queries already admit equality on
			// both prunes, so either side is correct.
			t.tick++
			goLeft = t.tick&1 == 0
		}
		if goLeft {
			next := cur.left.Load()
			if next == nil {
				cur.left.Store(n)
				break
			}
			cur = next
		} else {
			next := cur.right.Load()
			if next == nil {
				cur.right.Store(n)
				break
			}
			cur = next
		}
		depth++
	}
	// Publish the count only after the child-pointer store: Len must
	// never report a record a concurrent Count cannot yet reach.
	t.size.Add(1)
	if depth+1 > depthLimit(size) {
		t.rebuildLocked()
	}
}

// rebuildLocked reconstructs a balanced tree with median splits and
// publishes it with one atomic root swap. Caller holds wmu. The old
// nodes are left untouched for in-flight readers.
func (t *KD) rebuildLocked() {
	recs := make([]schema.Record, 0, t.size.Load())
	var collect func(n *kdNode)
	collect = func(n *kdNode) {
		if n == nil {
			return
		}
		collect(n.left.Load())
		recs = append(recs, n.rec)
		collect(n.right.Load())
	}
	collect(t.root.Load())
	t.root.Store(t.build(recs, 0))
}

// build constructs a balanced subtree from fresh nodes at the given
// depth by median partitioning (quickselect) on the cycling dimension.
func (t *KD) build(recs []schema.Record, depth int) *kdNode {
	if len(recs) == 0 {
		return nil
	}
	dim := depth % t.sch.Dims()
	mid := len(recs) / 2
	selectNth(recs, mid, dim, t.bounds)
	root := &kdNode{rec: recs[mid]}
	root.left.Store(t.build(recs[:mid], depth+1))
	root.right.Store(t.build(recs[mid+1:], depth+1))
	return root
}

// selectNth partially sorts recs so recs[n] is the n-th smallest by the
// bounds-clamped coordinate on dim, everything before it is <= and
// everything after is >=.
func selectNth(recs []schema.Record, n, dim int, bounds []uint64) {
	b := bounds[dim]
	at := func(i int) uint64 {
		v := recs[i][dim]
		if v > b {
			v = b
		}
		return v
	}
	lo, hi := 0, len(recs)-1
	for lo < hi {
		// Median-of-three pivot to dodge sorted-input quadratic blowup.
		mid := lo + (hi-lo)/2
		a, bm, c := at(lo), at(mid), at(hi)
		var pivot uint64
		switch {
		case (a <= bm && bm <= c) || (c <= bm && bm <= a):
			pivot = bm
		case (bm <= a && a <= c) || (c <= a && a <= bm):
			pivot = a
		default:
			pivot = c
		}
		i, j := lo, hi
		for i <= j {
			for at(i) < pivot {
				i++
			}
			for at(j) > pivot {
				j--
			}
			if i <= j {
				recs[i], recs[j] = recs[j], recs[i]
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

// Visit calls fn with every record inside rect. It is THE tree
// traversal — Query, QueryAppend and Count are wrappers.
func (t *KD) Visit(rect schema.Rect, fn func(schema.Record)) {
	var buf [maxStackDims]uint64
	if hi, ok := unclamp(t.bounds, rect, buf[:0]); ok {
		t.visit(t.root.Load(), 0, rect.Lo, hi, fn)
	}
}

// visit descends from n (split dimension dim) on an already unclamped
// rectangle [lo, hi]: raw record values are compared, never clamped.
func (t *KD) visit(n *kdNode, dim int, lo, hi []uint64, fn func(schema.Record)) {
	if n == nil {
		return
	}
	if inside(lo, hi, n.rec) {
		fn(n.rec)
	}
	// Insertion alternates equal coordinates between sides (t.tick), and
	// median rebuilds may also leave equal coordinates on either side —
	// so both prunes must admit equality.
	v := n.rec[dim]
	nd := dim + 1
	if nd == len(hi) {
		nd = 0
	}
	if lo[dim] <= v {
		t.visit(n.left.Load(), nd, lo, hi, fn)
	}
	if hi[dim] >= v {
		t.visit(n.right.Load(), nd, lo, hi, fn)
	}
}

// inside reports whether rec's raw indexed values lie in the unclamped
// rectangle [lo, hi].
func inside(lo, hi []uint64, rec schema.Record) bool {
	for i, h := range hi {
		if v := rec[i]; v < lo[i] || v > h {
			return false
		}
	}
	return true
}

// QueryAppend resolves rect and appends matches to out, returning the
// extended slice.
func (t *KD) QueryAppend(rect schema.Rect, out []schema.Record) []schema.Record {
	t.Visit(rect, func(rec schema.Record) { out = append(out, rec) })
	return out
}

// Query resolves an orthogonal range query.
func (t *KD) Query(rect schema.Rect) []schema.Record {
	return t.QueryAppend(rect, nil)
}

// Count returns the number of records inside rect: a Visit that counts.
func (t *KD) Count(rect schema.Rect) int {
	n := 0
	t.Visit(rect, func(schema.Record) { n++ })
	return n
}

// All streams every record in-order; stops early if yield returns false.
func (t *KD) All(yield func(rec schema.Record) bool) {
	var walk func(n *kdNode) bool
	walk = func(n *kdNode) bool {
		if n == nil {
			return true
		}
		if !walk(n.left.Load()) {
			return false
		}
		if !yield(n.rec) {
			return false
		}
		return walk(n.right.Load())
	}
	walk(t.root.Load())
}

// Depth returns the current tree height (diagnostics and tests).
func (t *KD) Depth() int {
	var d func(n *kdNode) int
	d = func(n *kdNode) int {
		if n == nil {
			return 0
		}
		l, r := d(n.left.Load()), d(n.right.Load())
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return d(t.root.Load())
}
