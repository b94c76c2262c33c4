package summary

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"mind/internal/schema"
)

// Defaults for Options zero values. Like the store's tail size these
// are fixed constants, not hardware probes: the cut geometry and fold
// cadence shape aggregate answers and merge timing, and simnet
// reproducibility requires identical behavior per seed everywhere.
const (
	DefaultDepth    = 8
	DefaultK        = 32
	DefaultDeltaMax = 256
)

// Options tunes a summary.
type Options struct {
	// Depth is the cut-tree depth: the indexed space is split at the
	// midpoint Depth times, giving 2^Depth leaf cells, each split on the
	// dimension the store's levels cut at that depth (schema.CutDim). With
	// a time attribute that is time on two cuts of three — six of the
	// default eight, 22.5-minute cells on a day — and round robin without
	// one. Deeper trees tighten boundary cells (less exact scanning per
	// query) at more rollup state per ladder. 0 selects 8.
	Depth int
	// K is the heavy-hitter sketch capacity per tree node. 0 selects 32.
	K int
	// DeltaMax bounds the insert delta buffer; crossing it folds the
	// delta into a fresh static tree (COW, like the store merge). 0
	// selects 256.
	DeltaMax int
}

func (o Options) withDefaults() Options {
	if o.Depth <= 0 {
		o.Depth = DefaultDepth
	}
	if o.Depth > 48 {
		o.Depth = 48
	}
	if o.K <= 0 {
		o.K = DefaultK
	}
	if o.DeltaMax <= 0 {
		o.DeltaMax = DefaultDeltaMax
	}
	return o
}

// node is one cell of the cut tree, immutable once published: total
// record count and per-attribute sums over the whole subtree, plus the
// cell's heavy-hitter sketch. A nil child means an empty subcell.
type node struct {
	count       uint64
	sums        []uint64 // per attribute, wrapping mod 2^64
	sk          *Sketch
	left, right *node
}

// sketch returns the cell's sketch; an empty subcell has none.
func (n *node) sketch() *Sketch {
	if n == nil {
		return nil
	}
	return n.sk
}

// snap is a published summary state: an immutable folded tree plus the
// delta absorbing recent inserts (nil until the first insert after a
// fold). Readers load the pointer once and resolve against both parts.
type snap struct {
	root  *node
	delta *delta
}

// delta is the insert buffer, published the way a store ladder
// publishes its tail: a fixed-capacity array of row views filled in
// place, of which readers see the first n. A fold retires it whole and
// the next insert starts a fresh one, so a row a reader has loaded is
// never overwritten.
type delta struct {
	recs []schema.Record // len DeltaMax
	n    atomic.Int32
}

// published returns the rows readers may see; a nil delta has none.
func (d *delta) published() []schema.Record {
	if d == nil {
		return nil
	}
	return d.recs[:d.n.Load()]
}

// Summary is one store ladder's hierarchical aggregate summary,
// maintained incrementally on insert — in production by the ladder that
// owns it (store.Options.Rollup). Writes serialize on a writer mutex; reads
// are lock-free against the last published snapshot, so a Resolve never
// blocks inserts.
//
// The sketch key is the record's first attribute (the paper's Index-1/2
// destination prefix) — "top destinations by record count" per cell.
type Summary struct {
	sch    *schema.Schema
	bounds []uint64
	time   int // sch.TimeDim(): the cut schedule (schema.CutDim)
	opts   Options
	mu     sync.Mutex
	snap   atomic.Pointer[snap]
	folds  atomic.Uint64
}

func keyOf(rec []uint64) uint64 { return rec[0] }

// New creates an empty summary.
func New(sch *schema.Schema, opts Options) *Summary {
	s := &Summary{sch: sch, bounds: sch.Bounds(), time: sch.TimeDim(), opts: opts.withDefaults()}
	s.snap.Store(&snap{})
	return s
}

// Insert adds one record. The summary keeps rec in its delta until the
// next fold, so — store.Store.Insert's contract — the caller must not
// mutate it after handing it over (a store ladder hands over its
// immutable tail row). Filling the delta's DeltaMax rows folds them into
// a fresh static tree. Between folds an insert allocates nothing: it
// writes the row view into the delta and publishes the new length.
func (s *Summary) Insert(rec schema.Record) {
	s.mu.Lock()
	sn := s.snap.Load()
	d := sn.delta
	if d == nil {
		d = &delta{recs: make([]schema.Record, s.opts.DeltaMax)}
		sn = &snap{root: sn.root, delta: d}
		s.snap.Store(sn)
	}
	i := int(d.n.Load())
	d.recs[i] = rec
	if i+1 == len(d.recs) {
		s.snap.Store(&snap{root: s.foldRecs(sn.root, d.recs)})
		s.folds.Add(1)
	} else {
		d.n.Store(int32(i + 1))
	}
	s.mu.Unlock()
}

// Fold force-folds any buffered delta into the static tree. A store
// ladder ends every carry with it, so its rollup folds at the ladder's
// own carry rhythm and lets go of the retired tail.
func (s *Summary) Fold() {
	s.mu.Lock()
	sn := s.snap.Load()
	if recs := sn.delta.published(); len(recs) > 0 {
		s.snap.Store(&snap{root: s.foldRecs(sn.root, recs)})
		s.folds.Add(1)
	}
	s.mu.Unlock()
}

// Len returns the number of summarized records (static + delta).
func (s *Summary) Len() int {
	sn := s.snap.Load()
	n := len(sn.delta.published())
	if sn.root != nil {
		n += int(sn.root.count)
	}
	return n
}

// Stats reports the static record count, buffered delta length and
// lifetime fold count (ops surface).
func (s *Summary) Stats() (staticN uint64, deltaN int, folds uint64) {
	sn := s.snap.Load()
	if sn.root != nil {
		staticN = sn.root.count
	}
	return staticN, len(sn.delta.published()), s.folds.Load()
}

// foldRecs builds a new static tree with recs folded in, path-copying
// only the touched cells; old nodes are never mutated, so in-flight
// readers drain on the previous snapshot.
func (s *Summary) foldRecs(root *node, recs []schema.Record) *node {
	// Partitioned in place: a copy, since readers of the previous snapshot
	// may still be walking the retired delta.
	recs = append([]schema.Record(nil), recs...)
	dims := s.sch.IndexDims
	slab := make([]uint64, len(recs)*dims) // every point, one allocation
	pts := make([][]uint64, len(recs))
	for i, rec := range recs {
		pts[i] = rec.PointInto(s.sch, slab[i*dims:(i+1)*dims:(i+1)*dims])
	}
	lo := make([]uint64, len(s.bounds))
	hi := append([]uint64(nil), s.bounds...)
	return s.foldNode(root, recs, pts, 0, lo, hi)
}

// cutDim is the dimension the cells at depth split: the store's schedule,
// so a rollup cell is cut where the store's levels cut.
func (s *Summary) cutDim(depth int) int { return schema.CutDim(depth, len(s.bounds), s.time) }

// foldNode folds recs, the fold's records inside n's cell, into a copy
// of n. A record is offered to one sketch only, its leaf cell's: an
// inner cell's sketch is the MergeMany of its children's, rebuilt from
// them after they fold. Merging costs the same whatever the batch, so a
// cell the fold hands fewer than K records — every cell of a shuffled
// stream's fold but the few nearest the root — offers them to a copy of
// its sketch instead, as a leaf does. Either way the sketch is a pure
// function of the cell's records and the fold schedule, and its brackets
// hold by the offer's and MergeMany's contracts.
func (s *Summary) foldNode(n *node, recs []schema.Record, pts [][]uint64, depth int, lo, hi []uint64) *node {
	if len(recs) == 0 {
		return n
	}
	c := &node{count: uint64(len(recs))}
	if n != nil {
		c.count += n.count
		c.sums = append([]uint64(nil), n.sums...)
		c.left, c.right = n.left, n.right
	}
	if c.sums == nil {
		c.sums = make([]uint64, s.sch.Arity())
	}
	for _, rec := range recs {
		for a := range c.sums {
			c.sums[a] += rec[a]
		}
	}
	leaf := depth == s.opts.Depth
	if leaf || len(recs) < s.opts.K {
		old := n.sketch()
		if old == nil {
			old = &Sketch{k: s.opts.K}
		}
		c.sk = old.cloneRoom(len(recs))
		for _, rec := range recs {
			c.sk.Offer(keyOf(rec))
		}
	}
	if leaf {
		return c
	}
	d := s.cutDim(depth)
	cut := lo[d] + (hi[d]-lo[d])/2
	l := 0
	for i := range recs {
		if pts[i][d] <= cut {
			recs[l], recs[i] = recs[i], recs[l]
			pts[l], pts[i] = pts[i], pts[l]
			l++
		}
	}
	if l > 0 {
		ohi := hi[d]
		hi[d] = cut
		c.left = s.foldNode(c.left, recs[:l], pts[:l], depth+1, lo, hi)
		hi[d] = ohi
	}
	if l < len(recs) && cut < hi[d] {
		olo := lo[d]
		lo[d] = cut + 1
		c.right = s.foldNode(c.right, recs[l:], pts[l:], depth+1, lo, hi)
		lo[d] = olo
	}
	if c.sk == nil {
		c.sk = NewSketch(s.opts.K)
		children := [2]*Sketch{c.left.sketch(), c.right.sketch()}
		c.sk.MergeMany(children[:])
	}
	return c
}

// Agg is an aggregate answer being assembled: exact count and
// per-attribute sums (wrapping mod 2^64) over the resolved region, a
// merged heavy-hitter sketch, and the boundary cells whose records the
// caller must resolve exactly against the record store (the summary
// contributes nothing for them, so store-scan + Add is exact with no
// double counting).
type Agg struct {
	Count    uint64
	Sums     []uint64
	Sketch   *Sketch
	Boundary []schema.Rect
}

// NewAgg creates an empty aggregate for a schema (coordinator-side
// merge accumulator).
func NewAgg(arity, k int) Agg {
	return Agg{Sums: make([]uint64, arity), Sketch: NewSketch(k)}
}

// Add folds one exact record into the aggregate (boundary-cell scan
// results, delta records in covered cells).
func (a *Agg) Add(rec schema.Record) {
	a.Count++
	for i := range a.Sums {
		if i < len(rec) {
			a.Sums[i] += rec[i]
		}
	}
	a.Sketch.Offer(keyOf(rec))
}

// Merge folds a partial aggregate (count, sums, sketch) into a — the
// coordinator-side combination of per-version and per-region partials.
func (a *Agg) Merge(count uint64, sums []uint64, sk *Sketch) {
	a.Count += count
	for i, v := range sums {
		if i < len(a.Sums) {
			a.Sums[i] += v
		}
	}
	if sk != nil {
		a.Sketch.Merge(sk)
	}
}

// Resolve answers rect from the summary: cells fully inside rect
// contribute their rolled-up counters and sketches; leaf cells that
// straddle the rect edge are returned clipped in Boundary for the
// caller to resolve exactly against the record store. Delta records are
// classified the same way by geometry — covered-cell records are folded
// exactly, boundary-cell records are skipped because the caller's exact
// boundary scan will see them in the store. The covered sketches and
// the delta's exact key part merge once.
//
// At quiescence Count and Sums are therefore exact (the store and
// summary hold the same record multiset); only the sketch is
// approximate, and exactly when Sketch.Exact() is false.
func (s *Summary) Resolve(rect schema.Rect) Agg {
	f := GetFold(s.sch.Arity())
	parts, boundary := s.cover(rect, f, nil)
	agg := NewAgg(s.sch.Arity(), s.opts.K)
	agg.Boundary = boundary
	agg.MergeShards(parts, f)
	PutFold(f)
	return agg
}

// cover resolves rect against the published snapshot without merging:
// the counters of the cells fully inside rect add to f and their
// sketches append to parts, delta records in those cells fold into f
// exactly, and the boundary leaves come back clipped to rect and
// coalesced.
func (s *Summary) cover(rect schema.Rect, f *Fold, parts []*Sketch) ([]*Sketch, []schema.Rect) {
	sn := s.snap.Load()
	w := coverWalk{s: s, rect: rect, f: f, parts: parts}
	lo := make([]uint64, len(s.bounds))
	hi := append([]uint64(nil), s.bounds...)
	w.descend(sn.root, 0, lo, hi)
	for _, rec := range sn.delta.published() {
		if rect.ContainsRecord(s.sch, rec) && s.deltaCovered(rect, rec, lo, hi) {
			f.add(rec, firstRow)
		}
	}
	return w.parts, coalesceRects(w.boundary)
}

// coalesceRects merges abutting boundary cells into maximal axis-aligned
// slabs. The cells come from one cut tree, so they are pairwise
// disjoint; fusing two rects that agree on every dim except one, where
// they touch exactly, preserves both disjointness and the union — the
// only properties the boundary contract needs. A wide rectangle's
// boundary is an O(perimeter) shell of leaf cells, and each surviving
// rect costs the caller one store descent, so collapsing the shell to a
// handful of slabs is what keeps the drill-down O(cover) in practice.
func coalesceRects(rects []schema.Rect) []schema.Rect {
	if len(rects) < 2 {
		return rects
	}
	dims := len(rects[0].Lo)
	for changed := true; changed; {
		changed = false
		for d := 0; d < dims && len(rects) > 1; d++ {
			slices.SortFunc(rects, func(a, b schema.Rect) int {
				for x := 0; x < dims; x++ {
					if x == d {
						continue
					}
					if c := cmp.Compare(a.Lo[x], b.Lo[x]); c != 0 {
						return c
					}
					if c := cmp.Compare(a.Hi[x], b.Hi[x]); c != 0 {
						return c
					}
				}
				return cmp.Compare(a.Lo[d], b.Lo[d])
			})
			out := rects[:1]
			for _, rc := range rects[1:] {
				last := &out[len(out)-1]
				if sameExcept(*last, rc, d) && last.Hi[d] != ^uint64(0) && last.Hi[d]+1 == rc.Lo[d] {
					last.Hi[d] = rc.Hi[d]
					changed = true
					continue
				}
				out = append(out, rc)
			}
			rects = out
		}
	}
	return rects
}

// sameExcept reports whether a and b coincide in every dim but d.
func sameExcept(a, b schema.Rect, d int) bool {
	for x := range a.Lo {
		if x == d {
			continue
		}
		if a.Lo[x] != b.Lo[x] || a.Hi[x] != b.Hi[x] {
			return false
		}
	}
	return true
}

// coverWalk is one cover resolution in progress.
type coverWalk struct {
	s        *Summary
	rect     schema.Rect
	f        *Fold
	parts    []*Sketch
	boundary []schema.Rect
}

func (w *coverWalk) descend(n *node, depth int, lo, hi []uint64) {
	rect := w.rect
	inside := true
	for d := range lo {
		if hi[d] < rect.Lo[d] || rect.Hi[d] < lo[d] {
			return // disjoint
		}
		if lo[d] < rect.Lo[d] || hi[d] > rect.Hi[d] {
			inside = false
		}
	}
	if inside {
		if n != nil {
			w.f.Count += n.count
			for i, v := range n.sums {
				w.f.Sums[i] += v
			}
			w.parts = append(w.parts, n.sk)
		}
		return
	}
	if depth == w.s.opts.Depth {
		// Boundary leaf: emitted even when the static subtree is empty —
		// delta records and freshly stored records may live here, and
		// only the caller's store scan sees those.
		dims := len(lo)
		b := make([]uint64, 2*dims)
		cl := schema.Rect{Lo: b[:dims:dims], Hi: b[dims:]}
		for d := range lo {
			cl.Lo[d] = max(lo[d], rect.Lo[d])
			cl.Hi[d] = min(hi[d], rect.Hi[d])
		}
		w.boundary = append(w.boundary, cl)
		return
	}
	d := w.s.cutDim(depth)
	cut := lo[d] + (hi[d]-lo[d])/2
	var l, r *node
	if n != nil {
		l, r = n.left, n.right
	}
	ohi := hi[d]
	hi[d] = cut
	w.descend(l, depth+1, lo, hi)
	hi[d] = ohi
	if cut < hi[d] {
		olo := lo[d]
		lo[d] = cut + 1
		w.descend(r, depth+1, lo, hi)
		lo[d] = olo
	}
}

// deltaCovered reports whether rec's point, known to lie inside rect,
// lands in a cell fully inside rect (count it) as opposed to a boundary
// leaf (skip). lo and hi are caller scratch.
func (s *Summary) deltaCovered(rect schema.Rect, rec schema.Record, lo, hi []uint64) bool {
	for d := range lo {
		lo[d] = 0
		hi[d] = s.bounds[d]
	}
	for depth := 0; ; depth++ {
		inside := true
		for d := range lo {
			if lo[d] < rect.Lo[d] || hi[d] > rect.Hi[d] {
				inside = false
			}
		}
		if inside {
			return true
		}
		if depth == s.opts.Depth {
			return false
		}
		d := s.cutDim(depth)
		cut := lo[d] + (hi[d]-lo[d])/2
		v := rec[d]
		if v > s.bounds[d] {
			v = s.bounds[d]
		}
		if v <= cut {
			hi[d] = cut
		} else {
			lo[d] = cut + 1
		}
	}
}
