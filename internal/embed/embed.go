// Package embed implements MIND's locality-preserving data-space
// embedding (§3.4–3.7): the mapping between a k-dimensional attribute
// space and the bit-string code space shared with the hypercube overlay.
//
// The data space is recursively cut by axis-aligned hyper-planes, one
// dimension per level in round-robin order. Each cut appends one bit to
// the code of a region: values at or below the cut get bit 0, values
// above it get bit 1. A data point therefore maps to a code of any
// desired depth, and an axis-aligned query rectangle maps to the code
// prefix of the smallest region that contains it, plus a decomposition
// into deeper regions it straddles.
//
// A Tree carries an explicit, histogram-balanced cut array down to a
// configurable depth (the §3.7 balanced cuts computed from the previous
// day's distribution); below the explicit depth, cuts fall back to
// midpoints of the enclosing region. A Tree with explicit depth zero is
// the uniform (unbalanced) embedding of Fig 5 top-left.
//
// There is one descent of the tree, Cursor: every mapping above, the
// balanced build and the query originator's coverage walk step it with
// Cut, Descend and Ascend, so the cut rule exists once.
package embed

import (
	"fmt"

	"mind/internal/bitstr"
	"mind/internal/histogram"
	"mind/internal/schema"
)

// MaxDepth bounds code depth; it matches bitstr.MaxLen.
const MaxDepth = bitstr.MaxLen

// Tree is an immutable cut tree over a bounded data space. The explicit
// levels form a complete binary tree stored in breadth-first order:
// level d occupies cuts[2^d-1 : 2^(d+1)-1], and the cut dimension at
// level d is d mod dims for every node of that level.
type Tree struct {
	bounds   []uint64
	expDepth int
	cuts     []uint64 // len == 1<<expDepth - 1
}

// Uniform builds the embedding with midpoint cuts everywhere.
func Uniform(bounds []uint64) *Tree {
	return &Tree{bounds: append([]uint64(nil), bounds...)}
}

// Balanced builds an embedding whose first depth levels are median cuts
// derived from the histogram (each cut divides the region's estimated
// weight in half); deeper levels use midpoint cuts. Empty or degenerate
// regions fall back to midpoint cuts, so the tree is total.
func Balanced(h *histogram.Hist, depth int) (*Tree, error) {
	if depth < 0 || depth > MaxDepth {
		return nil, fmt.Errorf("embed: balanced depth %d out of range [0,%d]", depth, MaxDepth)
	}
	if depth > 24 {
		return nil, fmt.Errorf("embed: balanced depth %d too deep for explicit storage", depth)
	}
	bounds := h.Bounds()
	t := &Tree{
		bounds:   bounds,
		expDepth: depth,
		cuts:     make([]uint64, (1<<uint(depth))-1),
	}
	var buf Scratch
	c := t.Root(&buf)
	t.build(h, &c)
	return t, nil
}

// build fills cuts[] for the subtree under the cursor's region, stepping
// down through each cut it has just stored as a lookup will read it. The
// degenerate right half of a pinned cut is filled too, with that region's
// own midpoints, so lookups stay total.
func (t *Tree) build(h *histogram.Hist, c *Cursor) {
	if c.depth >= t.expDepth {
		return
	}
	at, ok := h.SplitValue(c.lo, c.hi, c.dim)
	if !ok {
		at = midpoint(c.lo[c.dim], c.hi[c.dim])
	}
	t.cuts[c.slot()] = at
	cut := c.Cut()
	for bit := 0; bit <= 1; bit++ {
		undo := c.Descend(cut, bit)
		t.build(h, c)
		c.Ascend(undo)
	}
}

func midpoint(lo, hi uint64) uint64 { return lo + (hi-lo)/2 }

// Dims returns the data-space dimensionality.
func (t *Tree) Dims() int { return len(t.bounds) }

// Bounds returns the per-dimension inclusive upper bounds.
func (t *Tree) Bounds() []uint64 { return append([]uint64(nil), t.bounds...) }

// ExplicitDepth returns the number of histogram-balanced levels.
func (t *Tree) ExplicitDepth() int { return t.expDepth }

// scratchDims is the dimensionality a Scratch holds inline; wider trees
// put the cursor's rectangle on the heap.
const scratchDims = 8

// Scratch is the caller-owned storage a Cursor keeps its rectangle in.
// Declared as a local beside the cursor, it stays on the caller's stack.
type Scratch struct{ lo, hi [scratchDims]uint64 }

// Cursor is a position in the cut tree: a region code and that region's
// rectangle, carried down and back up in place. Every walk of the
// embedding is a loop over Cut, Descend and Ascend.
type Cursor struct {
	t      *Tree
	bits   uint64 // the region code, left-aligned as bitstr packs it
	depth  int
	dim    int // depth mod dims: the dimension this region is cut along
	lo, hi []uint64
}

// Cut is the hyper-plane dividing a cursor's region: coordinates at or
// below At along Dim are the left half (bit 0), those above it the right
// half (bit 1). Right is false when the cut is pinned to the region's
// top coordinate, which leaves the right half empty: no point maps
// there, and no walk needs to visit it.
type Cut struct {
	Dim   int
	At    uint64
	Right bool
	next  int // the dimension the halves are cut along, found here so that Descend stays small enough to inline
}

// Undo is what Descend overwrote, for Ascend to put back.
type Undo struct {
	dim    int
	lo, hi uint64
}

// Root returns a cursor on the whole data space. It is returned by value
// and keeps its rectangle in buf, so a walk allocates nothing.
func (t *Tree) Root(buf *Scratch) Cursor {
	dims := len(t.bounds)
	var lo, hi []uint64
	if dims <= scratchDims {
		lo, hi = buf.lo[:dims:dims], buf.hi[:dims:dims]
		clear(lo)
	} else {
		lo, hi = make([]uint64, dims), make([]uint64, dims)
	}
	copy(hi, t.bounds)
	return Cursor{t: t, lo: lo, hi: hi}
}

// At returns a cursor on the region of the given code.
func (t *Tree) At(buf *Scratch, region bitstr.Code) Cursor {
	c := t.Root(buf)
	for d := 0; d < region.Len(); d++ {
		c.Descend(c.Cut(), region.Bit(d))
	}
	return c
}

// Code returns the code of the cursor's region.
func (c *Cursor) Code() bitstr.Code { return bitstr.Unpack(c.bits, uint8(c.depth)) }

// Rect returns the cursor's region as a view of its scratch: it changes
// with the next Descend or Ascend, so Clone it to keep it.
func (c *Cursor) Rect() schema.Rect { return schema.Rect{Lo: c.lo, Hi: c.hi} }

// slot is the breadth-first index of the cursor's region, its place among
// the explicit cuts.
func (c *Cursor) slot() int { return 1<<uint(c.depth) - 1 + int(c.bits>>uint(64-c.depth)) }

// Cut returns the cut of the cursor's region: the explicit cut where
// the tree has one, clamped into the region so that a stale or degenerate
// value still leaves both halves well-formed, the midpoint below the
// explicit depth. The region must be shallower than MaxDepth.
func (c *Cursor) Cut() Cut {
	d, dim := c.depth, c.dim
	lo, hi := c.lo[dim], c.hi[dim]
	at := midpoint(lo, hi)
	if d < c.t.expDepth {
		at = min(max(c.t.cuts[c.slot()], lo), hi)
	}
	next := dim + 1
	if next == len(c.lo) {
		next = 0
	}
	return Cut{Dim: dim, At: at, Right: at < hi, next: next}
}

// Descend moves the cursor into the half of cut, its region's Cut, that
// bit names. The empty right half of a pinned cut is represented as the
// region's top coordinate alone.
func (c *Cursor) Descend(cut Cut, bit int) Undo {
	undo := Undo{dim: cut.Dim, lo: c.lo[cut.Dim], hi: c.hi[cut.Dim]}
	if bit == 0 {
		c.hi[cut.Dim] = cut.At
	} else {
		c.bits |= 1 << uint(63-c.depth)
		c.lo[cut.Dim] = cut.At // a pinned cut is the top coordinate itself
		if cut.Right {
			c.lo[cut.Dim]++
		}
	}
	c.depth++
	c.dim = cut.next
	return undo
}

// Ascend moves the cursor back to where the Descend that returned undo
// left from.
func (c *Cursor) Ascend(undo Undo) {
	c.depth--
	c.dim = undo.dim
	c.bits &^= 1 << uint(63-c.depth)
	c.lo[undo.dim], c.hi[undo.dim] = undo.lo, undo.hi
}

// PointCode maps point p to its depth-bit code. Out-of-bound coordinates
// are clamped to the dimension bound (§4.1: such tuples are assigned the
// largest range). It panics on arity mismatch or excessive depth.
func (t *Tree) PointCode(p []uint64, depth int) bitstr.Code {
	if len(p) != len(t.bounds) {
		panic(fmt.Sprintf("embed: point dims %d != %d", len(p), len(t.bounds)))
	}
	if depth < 0 || depth > MaxDepth {
		panic(fmt.Sprintf("embed: depth %d out of range", depth))
	}
	var buf Scratch
	c := t.Root(&buf)
	for d := 0; d < depth; d++ {
		cut := c.Cut()
		bit := 0
		if cut.Right && min(p[cut.Dim], t.bounds[cut.Dim]) > cut.At {
			bit = 1
		}
		c.Descend(cut, bit)
	}
	return c.Code()
}

// CodeRect returns the region of the data space owned by code c.
func (t *Tree) CodeRect(c bitstr.Code) schema.Rect {
	var buf Scratch
	cur := t.At(&buf, c)
	return cur.Rect().Clone()
}

// QueryCode maps query rectangle q to the code of the smallest region
// that wholly contains it, descending at most maxDepth levels. This is
// the code a query is greedy-routed towards (§3.6).
func (t *Tree) QueryCode(q schema.Rect, maxDepth int) bitstr.Code {
	if len(q.Lo) != len(t.bounds) {
		panic("embed: query dims mismatch")
	}
	var buf Scratch
	c := t.Root(&buf)
	for d := 0; d < maxDepth && d < MaxDepth; d++ {
		cut := c.Cut()
		bound := t.bounds[cut.Dim]
		switch {
		case !cut.Right || min(q.Hi[cut.Dim], bound) <= cut.At:
			c.Descend(cut, 0)
		case min(q.Lo[cut.Dim], bound) > cut.At:
			c.Descend(cut, 1)
		default:
			return c.Code() // query straddles the cut
		}
	}
	return c.Code()
}

// SubQuery is one piece of a decomposed query: the region code to route
// to and the query rectangle clipped to that region.
type SubQuery struct {
	Code bitstr.Code
	Rect schema.Rect
}

// Clamp returns a copy of q with every edge beyond a bound pulled onto
// it: an out-of-bound query edge behaves as the topmost coordinate, like
// a clamped record.
func Clamp(q schema.Rect, bounds []uint64) schema.Rect {
	q = q.Clone()
	for i, b := range bounds {
		q.Lo[i], q.Hi[i] = min(q.Lo[i], b), min(q.Hi[i], b)
	}
	return q
}

// Decompose splits query rectangle q into sub-queries at code depth
// depth: every depth-bit region the query intersects yields one SubQuery
// with the clipped rectangle. The first node whose region abuts the query
// performs this split before fanning sub-queries out on the overlay
// (§3.6). The number of sub-queries is bounded by 2^depth.
func (t *Tree) Decompose(q schema.Rect, depth int) []SubQuery {
	if len(q.Lo) != len(t.bounds) {
		panic("embed: query dims mismatch")
	}
	if depth < 0 || depth > MaxDepth {
		panic(fmt.Sprintf("embed: depth %d out of range", depth))
	}
	var buf Scratch
	c := t.Root(&buf)
	return c.decompose(Clamp(q, t.bounds), depth, nil)
}

// decompose appends the pieces of q, which intersects the cursor's
// region, under that region.
func (c *Cursor) decompose(q schema.Rect, depth int, out []SubQuery) []SubQuery {
	if c.depth == depth {
		sub := q.Clone()
		for i := range sub.Lo {
			sub.Lo[i], sub.Hi[i] = max(sub.Lo[i], c.lo[i]), min(sub.Hi[i], c.hi[i])
		}
		return append(out, SubQuery{Code: c.Code(), Rect: sub})
	}
	cut := c.Cut()
	if q.Lo[cut.Dim] <= cut.At {
		undo := c.Descend(cut, 0)
		out = c.decompose(q, depth, out)
		c.Ascend(undo)
	}
	if cut.Right && q.Hi[cut.Dim] > cut.At {
		undo := c.Descend(cut, 1)
		out = c.decompose(q, depth, out)
		c.Ascend(undo)
	}
	return out
}
