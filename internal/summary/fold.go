package summary

import (
	"sync"

	"mind/internal/schema"
)

// Tally is an exact key → weight table: flat, open-addressed, linear
// probing on a multiply-shift hash. It is what records a node sees one
// at a time are counted in — a boundary cell holds thousands of records
// over thousands of distinct keys, and pushing each through a
// capacity-K space-saving sketch costs a min-scan and an eviction per
// record to end up with worse brackets than simply counting. The zero
// Tally is empty and ready; it allocates on first use and then only
// when the number of DISTINCT keys doubles.
type Tally struct {
	slots []tallySlot // len is a power of two; w == 0 marks an empty slot
	used  int
	shift uint   // 64 - log2(len(slots))
	total uint64 // Σ weights
}

type tallySlot struct{ key, w uint64 }

const tallyMinSlots = 64

// AddN adds weight w to key.
func (t *Tally) AddN(key, w uint64) {
	if w == 0 {
		return
	}
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
	}
	t.total += w
	mask := uint64(len(t.slots) - 1)
	for i := key * 0x9E3779B97F4A7C15 >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.w == 0 {
			*s = tallySlot{key, w}
			t.used++
			return
		}
		if s.key == key {
			s.w += w
			return
		}
	}
}

// grow doubles the table (load stays at or below 1/2) and reinserts.
func (t *Tally) grow() {
	old := t.slots
	n := max(2*len(old), tallyMinSlots)
	t.slots = make([]tallySlot, n)
	t.shift = 64
	for ; n > 1; n >>= 1 {
		t.shift--
	}
	t.used, t.total = 0, 0
	t.Merge(&Tally{slots: old})
}

// Reset empties the tally in place, keeping its table.
func (t *Tally) Reset() {
	clear(t.slots)
	t.used, t.total = 0, 0
}

// Merge adds every weight of o into t.
func (t *Tally) Merge(o *Tally) {
	for _, s := range o.slots {
		t.AddN(s.key, s.w)
	}
}

// Part turns the tally into one EXACT sketch part of capacity k: the k
// heaviest keys (canonical order) with their true weights and Err = 0,
// and Floor = the largest truncated weight (0 when nothing was cut, so
// the part is then Exact). Every bracket is valid by construction —
// a kept key's weight is its Count, an absent key weighs at most Floor —
// and both are at least as tight as any sketch of the same capacity
// offered the same stream: its Errs are >= 0, and one of the k+1
// heaviest keys is absent from it, so its own floor contract puts its
// Floor at or above that key's weight. The part joins the rollup parts
// in MergeMany like any other contributor; truncating once here, after
// the last record, is what keeps the brackets exact up to that point.
//
// The selection is one pass over the table into a k-entry heap whose
// root is the last kept entry in canonical order: a key that does not
// beat the root is truncated on the spot, so nothing but the k kept
// entries is ever copied out.
func (t *Tally) Part(k int) *Sketch {
	k = max(k, 1)
	top := make([]Entry, 0, min(k, t.used))
	var floor uint64
	for _, s := range t.slots {
		if s.w == 0 {
			continue
		}
		e := Entry{Key: s.key, Count: s.w}
		switch {
		case len(top) < k:
			top = append(top, e)
			heapUp(top, len(top)-1)
		case entryBefore(e, top[0]):
			floor = max(floor, top[0].Count)
			top[0] = e
			heapDown(top, 0)
		default:
			floor = max(floor, e.Count)
		}
	}
	sortEntries(top)
	return FromParts(k, t.total, floor, top)
}

// heapUp and heapDown keep h a heap whose root is its last entry in
// canonical order: no child is after its parent.
func heapUp(h []Entry, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !entryBefore(h[p], h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func heapDown(h []Entry, i int) {
	for {
		last, l := i, 2*i+1
		if l < len(h) && entryBefore(h[last], h[l]) {
			last = l
		}
		if r := l + 1; r < len(h) && entryBefore(h[last], h[r]) {
			last = r
		}
		if last == i {
			return
		}
		h[i], h[last] = h[last], h[i]
		i = last
	}
}

// Fold is the exact half of an aggregate under assembly: records
// streamed by a store visit (boundary cells, replica stores without a
// summary) add to the count, the per-attribute sums and a key
// Tally, in place — no record slice, no sketch offer. AddBatch has the
// store's batch callback signature.
type Fold struct {
	Count uint64
	Sums  []uint64
	Keys  Tally
}

// NewFold creates an empty fold for records of the given arity.
func NewFold(arity int) *Fold { return &Fold{Sums: make([]uint64, arity)} }

// foldPool recycles folds between aggregates: an unaligned aggregate's
// few thousand distinct keys would otherwise double a fresh Tally from
// tallyMinSlots seven times per query per node.
var foldPool sync.Pool

// GetFold returns an empty fold for records of the given arity, reusing
// a released fold's tables when one is at hand. Hand it back with
// PutFold once nothing reads it any more.
func GetFold(arity int) *Fold {
	f, _ := foldPool.Get().(*Fold)
	if f == nil || len(f.Sums) != arity {
		return NewFold(arity)
	}
	return f
}

// PutFold resets f and releases it for reuse. Nothing may retain f or
// its slices; Tally.Part copies what it returns, so a closed aggregate
// does not.
func PutFold(f *Fold) {
	f.Reset()
	foldPool.Put(f)
}

// Reset empties the fold in place: counters and key slots are zeroed,
// capacity is kept.
func (f *Fold) Reset() {
	f.Count = 0
	clear(f.Sums)
	f.Keys.Reset()
}

// AddBatch folds the selected records of one store batch: rows is a run
// of records and sel the word offsets into rows of those to fold, each
// starting a record at least len(f.Sums) words long.
func (f *Fold) AddBatch(rows []uint64, sel []int32) {
	f.Count += uint64(len(sel))
	sums := f.Sums
	for _, o := range sel {
		rec := rows[o : int(o)+len(sums)]
		for i, v := range rec {
			sums[i] += v
		}
		f.Keys.AddN(keyOf(rec), 1)
	}
}

// Visitor streams every stored record inside rect to fn a batch at a
// time: rows is a run of records and sel the word offsets into rows of
// those inside rect. The production implementation is
// store.Sharded.VisitBatches.
type Visitor func(rect schema.Rect, fn func(rows []uint64, sel []int32))

// ResolveShard answers rect for one store ladder and its rollup: the
// rollup contributes the cells fully inside rect — counters into f, its
// merged sketch returned as the cover part — and every boundary cell is
// folded exactly where it stands, visit streaming its records into f
// batch by batch. A nil summary (a replica store) folds the whole
// rectangle and returns no cover part. This is the one implementation of "resolve the cover, drill the
// boundary"; Agg.MergeShards closes the answer.
func ResolveShard(s *Summary, rect schema.Rect, visit Visitor, f *Fold) *Sketch {
	add := f.AddBatch
	if s == nil {
		visit(rect, add)
		return nil
	}
	r := s.Resolve(rect)
	f.Count += r.Count
	for i, v := range r.Sums {
		f.Sums[i] += v
	}
	for _, cell := range r.Boundary {
		visit(cell, add)
	}
	return r.Sketch
}

// MergeShards closes a node's aggregate: f's exact counters are added,
// and the ladders' cover parts and f's one exact key part combine in a
// single MergeMany, whose result is a pure function of the multiset of
// parts — the answer cannot depend on the order the ladders were folded.
func (a *Agg) MergeShards(covers []*Sketch, f *Fold) {
	a.Merge(f.Count, f.Sums, nil)
	a.Sketch.MergeMany(append(covers, f.Keys.Part(a.Sketch.K())))
}
