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
	// DeltaMax bounds the insert delta buffer; filling it folds the
	// delta into the tree in place. 0 selects 256.
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

// cell is one populated cell of the cut tree, held in the summary's
// arena at its slot number: its record count, its children's slots
// (empty for an empty subcell) and the header of its sketch — total
// weight, floor and entry count. The cell's sums are the arity words at
// its slot of Summary.sums and its sketch's entries the K at its slot of
// Summary.ents. A slot is allocated when its cell first holds a record
// and never frees; every later fold rewrites it in place.
type cell struct {
	count       uint64
	skN, floor  uint64
	left, right int32
	entries     int32
}

// chunkSlots is the number of slots an entry chunk holds: 6 KB at the
// default K.
const chunkSlots = 8

// empty is the slot number of an empty cell. The root, once populated,
// is slot 0, and no cell's child.
const empty int32 = -1

// Summary is one store ladder's hierarchical aggregate summary,
// maintained incrementally on insert — in production by the ladder that
// owns it (store.Options.Rollup). The folded tree is an arena of
// pointer-free slots, one per populated cell, updated in place: writes
// serialize on a writer mutex, and a fold also holds rw for writing,
// while a reader holds it for reading over its cover walk and copies
// out every sketch it keeps. An insert between folds takes no lock a
// reader takes: it writes a row view into the delta and publishes the
// delta's new length with one atomic store.
//
// The sketch key is the record's first attribute (the paper's Index-1/2
// destination prefix) — "top destinations by record count" per cell.
type Summary struct {
	sch    *schema.Schema
	bounds []uint64
	time   int // sch.TimeDim(): the cut schedule (schema.CutDim)
	opts   Options
	mu     sync.Mutex   // serializes Insert and Fold
	rw     sync.RWMutex // held by a fold to write the arena, by a cover walk to read it
	cells  []cell
	sums   []uint64 // arity words per slot, wrapping mod 2^64
	// ents holds K sketch entries per slot in chunks of chunkSlots slots:
	// a chunk, once allocated, is never copied or regrown, so the arena
	// grows without leaving old copies behind and is never more than a
	// chunk larger than its cells need.
	ents [][]Entry
	// delta is the insert buffer of DeltaMax row views, allocated by the
	// first insert, of which readers see the first n. A fold empties it
	// in place and clears its views, so it holds no retired tail row.
	delta  []schema.Record
	n      atomic.Int32
	lo, hi []uint64 // the fold's cell bounds
	folds  atomic.Uint64
}

func keyOf(rec []uint64) uint64 { return rec[0] }

// New creates an empty summary.
func New(sch *schema.Schema, opts Options) *Summary {
	s := &Summary{sch: sch, bounds: sch.Bounds(), time: sch.TimeDim(), opts: opts.withDefaults()}
	dims := len(s.bounds)
	b := make([]uint64, 2*dims)
	s.lo, s.hi = b[:dims:dims], b[dims:]
	return s
}

// Insert adds one record. The summary keeps rec in its delta until the
// next fold, so — store.Store.Insert's contract — the caller must not
// mutate it after handing it over (a store ladder hands over its
// immutable tail row). Filling the delta's DeltaMax rows folds them into
// the tree. Between folds an insert allocates nothing: it writes the row
// view into the delta and publishes the new length.
func (s *Summary) Insert(rec schema.Record) {
	s.mu.Lock()
	if s.delta == nil {
		s.rw.Lock()
		s.delta = make([]schema.Record, s.opts.DeltaMax)
		s.rw.Unlock()
	}
	i := int(s.n.Load())
	s.delta[i] = rec
	if i+1 == len(s.delta) {
		s.fold(s.delta)
	} else {
		s.n.Store(int32(i + 1))
	}
	s.mu.Unlock()
}

// Fold force-folds any buffered delta into the tree. A store ladder ends
// every carry with it, so its rollup folds at the ladder's own carry
// rhythm and lets go of the retired tail.
func (s *Summary) Fold() {
	s.mu.Lock()
	if n := s.n.Load(); n > 0 {
		s.fold(s.delta[:n])
	}
	s.mu.Unlock()
}

// Len returns the number of summarized records (static + delta).
func (s *Summary) Len() int {
	staticN, deltaN, _ := s.Stats()
	return int(staticN) + deltaN
}

// Stats reports the static record count, buffered delta length and
// lifetime fold count (ops surface).
func (s *Summary) Stats() (staticN uint64, deltaN int, folds uint64) {
	s.rw.RLock()
	if len(s.cells) > 0 {
		staticN = s.cells[0].count
	}
	deltaN = int(s.n.Load())
	s.rw.RUnlock()
	return staticN, deltaN, s.folds.Load()
}

// root returns the root's slot, empty before the first fold.
func (s *Summary) root() int32 {
	if len(s.cells) == 0 {
		return empty
	}
	return 0
}

// sketch returns a view of slot i's sketch: its entries are the slot's
// own, with room for K, so offering to the view writes the slot in place
// and setSketch publishes the header.
func (s *Summary) sketch(i int32) Sketch {
	c, k := &s.cells[i], s.opts.K
	at := int(i%chunkSlots) * k
	return Sketch{k: k, n: c.skN, floor: c.floor, entries: s.ents[i/chunkSlots][at : at+int(c.entries) : at+k]}
}

// setSketch stores the header of sk, a view of slot i's sketch.
func (s *Summary) setSketch(i int32, sk *Sketch) {
	c := &s.cells[i]
	c.skN, c.floor, c.entries = sk.n, sk.floor, int32(len(sk.entries))
}

// alloc appends a slot for a newly populated cell: no records, no
// children, an empty sketch.
func (s *Summary) alloc() int32 {
	i := int32(len(s.cells))
	s.cells = append(s.cells, cell{left: empty, right: empty})
	s.sums = append(s.sums, make([]uint64, s.sch.Arity())...)
	if i%chunkSlots == 0 {
		s.ents = append(s.ents, make([]Entry, chunkSlots*s.opts.K))
	}
	return i
}

// fold folds recs, the delta's published rows, into the tree under the
// write lock, then empties the delta. recs are partitioned in place:
// no reader sees the delta until the lock is released. Caller holds mu.
func (s *Summary) fold(recs []schema.Record) {
	s.rw.Lock()
	copy(s.hi, s.bounds)
	clear(s.lo)
	s.foldCell(s.root(), recs, 0)
	clear(recs)
	s.n.Store(0)
	s.rw.Unlock()
	s.folds.Add(1)
}

// cutDim is the dimension the cells at depth split: the store's schedule,
// so a rollup cell is cut where the store's levels cut.
func (s *Summary) cutDim(depth int) int { return schema.CutDim(depth, len(s.bounds), s.time) }

// foldCell folds recs, the fold's records inside the cell bounded by
// s.lo and s.hi, into slot i — allocating it if the cell was empty — and
// returns the slot. A record is offered to one sketch only, its leaf
// cell's: an inner cell's sketch is the MergeMany of its children's,
// rebuilt from them after they fold. Merging costs the same whatever the
// batch, so a cell the fold hands fewer than K records — every cell of a
// shuffled stream's fold but the few nearest the root — offers them to
// its sketch instead, as a leaf does. Either way the sketch is a pure
// function of the cell's records and the fold schedule, and its brackets
// hold by the offer's and MergeMany's contracts.
func (s *Summary) foldCell(i int32, recs []schema.Record, depth int) int32 {
	if len(recs) == 0 {
		return i
	}
	if i == empty {
		i = s.alloc()
	}
	s.cells[i].count += uint64(len(recs))
	arity := s.sch.Arity()
	sums := s.sums[int(i)*arity : int(i+1)*arity]
	for _, rec := range recs {
		for a := range sums {
			sums[a] += rec[a]
		}
	}
	leaf := depth == s.opts.Depth
	if leaf || len(recs) < s.opts.K {
		sk := s.sketch(i)
		for _, rec := range recs {
			sk.Offer(keyOf(rec))
		}
		s.setSketch(i, &sk)
	}
	if leaf {
		return i
	}
	d, lo, hi := s.cutDim(depth), s.lo, s.hi
	cut := lo[d] + (hi[d]-lo[d])/2
	l := 0
	for j, rec := range recs {
		if min(rec[d], s.bounds[d]) <= cut {
			recs[l], recs[j] = recs[j], recs[l]
			l++
		}
	}
	// A child's fold may grow the arena: the cell is re-read by slot.
	if l > 0 {
		ohi := hi[d]
		hi[d] = cut
		left := s.foldCell(s.cells[i].left, recs[:l], depth+1)
		s.cells[i].left = left
		hi[d] = ohi
	}
	if l < len(recs) && cut < hi[d] {
		olo := lo[d]
		lo[d] = cut + 1
		right := s.foldCell(s.cells[i].right, recs[l:], depth+1)
		s.cells[i].right = right
		lo[d] = olo
	}
	if len(recs) >= s.opts.K {
		s.mergeChildren(i)
	}
	return i
}

// mergeChildren rebuilds slot i's sketch as the MergeMany of its
// children's into an empty sketch, written straight into the slot.
func (s *Summary) mergeChildren(i int32) {
	var kids [2]Sketch
	var parts [2]*Sketch
	for j, c := range [2]int32{s.cells[i].left, s.cells[i].right} {
		if c != empty {
			kids[j] = s.sketch(c)
			parts[j] = &kids[j]
		}
	}
	sk := s.sketch(i)
	sk.n, sk.floor, sk.entries = 0, 0, sk.entries[:0]
	m := getMerge()
	kept := m.merge(&sk, parts[:])
	sk.entries = append(sk.entries, kept...)
	sortEntries(sk.entries)
	mergePool.Put(m)
	s.setSketch(i, &sk)
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

// cover resolves rect against the tree and the delta without merging:
// the counters of the cells fully inside rect add to f and copies of
// their sketches, kept in f, append to parts; delta records in those
// cells fold into f exactly; and the boundary leaves come back clipped
// to rect and coalesced. The walk holds the read lock, and nothing it
// returns points into the arena, so a later fold cannot reach a part.
func (s *Summary) cover(rect schema.Rect, f *Fold, parts []*Sketch) ([]*Sketch, []schema.Rect) {
	w := coverWalk{s: s, rect: rect, f: f}
	lo := make([]uint64, len(s.bounds))
	hi := append([]uint64(nil), s.bounds...)
	from := len(f.parts)
	s.rw.RLock()
	w.descend(s.root(), 0, lo, hi)
	parts = f.keepParts(from, parts)
	for _, rec := range s.delta[:s.n.Load()] {
		if rect.ContainsRecord(s.sch, rec) && s.deltaCovered(rect, rec, lo, hi) {
			f.add(rec, firstRow)
		}
	}
	s.rw.RUnlock()
	return parts, coalesceRects(w.boundary)
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
	boundary []schema.Rect
}

func (w *coverWalk) descend(i int32, depth int, lo, hi []uint64) {
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
		if i != empty {
			w.f.Count += w.s.cells[i].count
			arity := w.s.sch.Arity()
			for a, v := range w.s.sums[int(i)*arity : int(i+1)*arity] {
				w.f.Sums[a] += v
			}
			w.f.parts = append(w.f.parts, w.s.sketch(i))
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
	l, r := empty, empty
	if i != empty {
		l, r = w.s.cells[i].left, w.s.cells[i].right
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
