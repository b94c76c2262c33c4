package embed

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mind/internal/bitstr"
	"mind/internal/histogram"
	"mind/internal/schema"
)

// The walkers below are the cut-tree descents as they stood before
// Cursor: each restarts from the root with its own copy of the cut rule.
// They are kept, unchanged but for the ref prefix, as the oracle the
// cursor-based walks are compared against bit for bit.

func (t *Tree) refCutValue(path bitstr.Code, d int, lo, hi uint64) uint64 {
	if d < t.expDepth {
		idx := (1 << uint(d)) - 1 + int(path.Prefix(d).Uint64())
		c := t.cuts[idx]
		if c < lo {
			c = lo
		}
		if c > hi {
			c = hi
		}
		return c
	}
	return lo + (hi-lo)/2
}

func (t *Tree) refPointCode(p []uint64, depth int) bitstr.Code {
	dims := len(t.bounds)
	lo := make([]uint64, dims)
	hi := append([]uint64(nil), t.bounds...)
	code := bitstr.Empty
	for d := 0; d < depth; d++ {
		dim := d % dims
		v := p[dim]
		if v > t.bounds[dim] {
			v = t.bounds[dim]
		}
		cut := t.refCutValue(code, d, lo[dim], hi[dim])
		if v <= cut || cut == hi[dim] {
			code = code.Append(0)
			hi[dim] = cut
		} else {
			code = code.Append(1)
			lo[dim] = cut + 1
		}
	}
	return code
}

func (t *Tree) refCodeRect(c bitstr.Code) schema.Rect {
	dims := len(t.bounds)
	lo := make([]uint64, dims)
	hi := append([]uint64(nil), t.bounds...)
	for d := 0; d < c.Len(); d++ {
		dim := d % dims
		cut := t.refCutValue(c.Prefix(d), d, lo[dim], hi[dim])
		if c.Bit(d) == 0 {
			hi[dim] = cut
		} else {
			if cut >= hi[dim] {
				lo[dim] = hi[dim]
			} else {
				lo[dim] = cut + 1
			}
		}
	}
	return schema.Rect{Lo: lo, Hi: hi}
}

func (t *Tree) refQueryCode(q schema.Rect, maxDepth int) bitstr.Code {
	if maxDepth > MaxDepth {
		maxDepth = MaxDepth
	}
	dims := len(t.bounds)
	lo := make([]uint64, dims)
	hi := append([]uint64(nil), t.bounds...)
	code := bitstr.Empty
	for d := 0; d < maxDepth; d++ {
		dim := d % dims
		qLo, qHi := q.Lo[dim], q.Hi[dim]
		if qHi > t.bounds[dim] {
			qHi = t.bounds[dim]
		}
		if qLo > t.bounds[dim] {
			qLo = t.bounds[dim]
		}
		cut := t.refCutValue(code, d, lo[dim], hi[dim])
		switch {
		case qHi <= cut || cut == hi[dim]:
			code = code.Append(0)
			hi[dim] = cut
		case qLo > cut:
			code = code.Append(1)
			lo[dim] = cut + 1
		default:
			return code
		}
	}
	return code
}

// refChildren returns the non-empty child regions of a region code with
// their rects: the right branch of a cut pinned to the region's top
// coordinate is empty and omitted.
func (t *Tree) refChildren(region bitstr.Code) []SubQuery {
	if region.Len() >= MaxDepth {
		return nil
	}
	r := t.refCodeRect(region)
	lo, hi := r.Lo, r.Hi
	d := region.Len()
	dim := d % len(t.bounds)
	cut := t.refCutValue(region, d, lo[dim], hi[dim])
	var out []SubQuery
	leftLo := append([]uint64(nil), lo...)
	leftHi := append([]uint64(nil), hi...)
	leftHi[dim] = cut
	out = append(out, SubQuery{Code: region.Append(0), Rect: schema.Rect{Lo: leftLo, Hi: leftHi}})
	if cut < hi[dim] {
		rightLo := append([]uint64(nil), lo...)
		rightHi := append([]uint64(nil), hi...)
		rightLo[dim] = cut + 1
		out = append(out, SubQuery{Code: region.Append(1), Rect: schema.Rect{Lo: rightLo, Hi: rightHi}})
	}
	return out
}

func (t *Tree) refDecompose(q schema.Rect, depth int) []SubQuery {
	qc := q.Clone()
	for i := range qc.Lo {
		if qc.Lo[i] > t.bounds[i] {
			qc.Lo[i] = t.bounds[i]
		}
		if qc.Hi[i] > t.bounds[i] {
			qc.Hi[i] = t.bounds[i]
		}
	}
	dims := len(t.bounds)
	lo := make([]uint64, dims)
	hi := append([]uint64(nil), t.bounds...)
	var out []SubQuery
	t.refDecomposeStep(qc, bitstr.Empty, 0, depth, lo, hi, dims, &out)
	return out
}

func (t *Tree) refDecomposeStep(q schema.Rect, code bitstr.Code, d, depth int, lo, hi []uint64, dims int, out *[]SubQuery) {
	if d == depth {
		sub := q.Clone()
		for i := 0; i < dims; i++ {
			if sub.Lo[i] < lo[i] {
				sub.Lo[i] = lo[i]
			}
			if sub.Hi[i] > hi[i] {
				sub.Hi[i] = hi[i]
			}
		}
		*out = append(*out, SubQuery{Code: code, Rect: sub})
		return
	}
	dim := d % dims
	cut := t.refCutValue(code, d, lo[dim], hi[dim])
	oldLo, oldHi := lo[dim], hi[dim]
	if q.Lo[dim] <= cut {
		hi[dim] = cut
		t.refDecomposeStep(q, code.Append(0), d+1, depth, lo, hi, dims, out)
		hi[dim] = oldHi
	}
	if cut < oldHi && q.Hi[dim] > cut {
		lo[dim] = cut + 1
		t.refDecomposeStep(q, code.Append(1), d+1, depth, lo, hi, dims, out)
		lo[dim] = oldLo
	}
}

// refTree draws a random embedding: one to four dimensions (or ten, past
// the cursor's inline scratch), one of them possibly a single coordinate,
// balanced from a skewed histogram to a random explicit depth, then a
// few explicit cuts overwritten with arbitrary values — a pinned cut
// (the region's top coordinate), a stale one outside its region — as a
// tree decoded from the wire may carry.
func refTree(r *rand.Rand) *Tree {
	dims := 1 + r.Intn(4)
	if r.Intn(8) == 0 {
		dims = 10
	}
	bounds := make([]uint64, dims)
	for i := range bounds {
		bounds[i] = r.Uint64() >> uint(r.Intn(64))
	}
	if r.Intn(3) == 0 {
		bounds[r.Intn(dims)] = 0
	}
	k := 4
	if dims > 4 {
		k = 2 // k^dims cells
	}
	h := histogram.MustNew(k, bounds)
	for i := 0; i < 200; i++ {
		p := make([]uint64, dims)
		for d, b := range bounds {
			p[d] = refCoord(r, b) >> uint(r.Intn(8))
		}
		h.AddPoint(p)
	}
	t, err := Balanced(h, r.Intn(7))
	if err != nil {
		panic(err)
	}
	for i := 0; len(t.cuts) > 0 && i < r.Intn(4); i++ {
		idx := r.Intn(len(t.cuts))
		switch r.Intn(3) {
		case 0:
			t.cuts[idx] = r.Uint64()
		case 1:
			t.cuts[idx] = bounds[r.Intn(dims)]
		default:
			t.cuts[idx] = 0
		}
	}
	return t
}

// refCoord draws a coordinate in [0, bound], sometimes beyond it.
func refCoord(r *rand.Rand, bound uint64) uint64 {
	switch r.Intn(8) {
	case 0:
		return bound
	case 1:
		return r.Uint64()
	}
	if bound == ^uint64(0) {
		return r.Uint64()
	}
	return r.Uint64() % (bound + 1)
}

func refRect(r *rand.Rand, bounds []uint64) schema.Rect {
	q := schema.Rect{Lo: make([]uint64, len(bounds)), Hi: make([]uint64, len(bounds))}
	for i, b := range bounds {
		lo, hi := refCoord(r, b), refCoord(r, b)
		if lo > hi {
			lo, hi = hi, lo
		}
		q.Lo[i], q.Hi[i] = lo, hi
	}
	return q
}

func sameRect(a, b schema.Rect) bool {
	return slices.Equal(a.Lo, b.Lo) && slices.Equal(a.Hi, b.Hi)
}

// checkCursorVsReference compares every cursor-based walk of one random
// tree with the reference walkers: codes, rectangles and decompositions
// must be bit-identical, and every Descend/Ascend pair must restore the
// cursor exactly.
func checkCursorVsReference(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	t := refTree(r)
	for i := 0; i < 8; i++ {
		p := make([]uint64, t.Dims())
		for d, b := range t.bounds {
			p[d] = refCoord(r, b)
		}
		depth := r.Intn(MaxDepth + 1)
		code := t.PointCode(p, depth)
		if want := t.refPointCode(p, depth); !code.Equal(want) {
			return fmt.Errorf("PointCode(%v, %d) = %s, reference %s", p, depth, code, want)
		}

		// Any code names a region, a point's own or not.
		if r.Intn(2) == 0 {
			code = bitstr.New(r.Uint64(), depth)
		}
		rect := t.CodeRect(code)
		if want := t.refCodeRect(code); !sameRect(rect, want) {
			return fmt.Errorf("CodeRect(%s) = %v, reference %v", code, rect, want)
		}
		var buf Scratch
		cur := t.At(&buf, code)
		if !cur.Code().Equal(code) || !sameRect(cur.Rect(), rect) {
			return fmt.Errorf("At(%s) stands at %s %v, want %v", code, cur.Code(), cur.Rect(), rect)
		}
		if err := checkChildren(t, &cur); err != nil {
			return err
		}

		q := refRect(r, t.bounds)
		maxDepth := r.Intn(MaxDepth+8) - 2
		if got, want := t.QueryCode(q, maxDepth), t.refQueryCode(q, maxDepth); !got.Equal(want) {
			return fmt.Errorf("QueryCode(%v, %d) = %s, reference %s", q, maxDepth, got, want)
		}
		ddepth := r.Intn(9)
		got, want := t.Decompose(q, ddepth), t.refDecompose(q, ddepth)
		if len(got) != len(want) {
			return fmt.Errorf("Decompose(%v, %d): %d pieces, reference %d", q, ddepth, len(got), len(want))
		}
		for k := range got {
			if !got[k].Code.Equal(want[k].Code) || !sameRect(got[k].Rect, want[k].Rect) {
				return fmt.Errorf("Decompose(%v, %d)[%d] = %v, reference %v", q, ddepth, k, got[k], want[k])
			}
		}
	}
	return nil
}

// checkChildren steps the cursor into each child the reference lists and
// back: the child's code and rectangle match, the right half is offered
// exactly when the reference has one, and Ascend restores the parent.
func checkChildren(t *Tree, cur *Cursor) error {
	region := cur.Code()
	if region.Len() >= MaxDepth {
		return nil
	}
	parent := cur.Rect().Clone()
	kids := t.refChildren(region)
	cut := cur.Cut()
	if cut.Right != (len(kids) == 2) {
		return fmt.Errorf("Cut at %s: Right = %v, reference has %d children", region, cut.Right, len(kids))
	}
	for bit, kid := range kids {
		undo := cur.Descend(cut, bit)
		if !cur.Code().Equal(kid.Code) || !sameRect(cur.Rect(), kid.Rect) {
			return fmt.Errorf("Descend(%s, %d) stands at %s %v, reference %s %v", region, bit, cur.Code(), cur.Rect(), kid.Code, kid.Rect)
		}
		cur.Ascend(undo)
		if !cur.Code().Equal(region) || !sameRect(cur.Rect(), parent) {
			return fmt.Errorf("Ascend from %s left %s %v, want %s %v", kid.Code, cur.Code(), cur.Rect(), region, parent)
		}
	}
	return nil
}

func TestCursorVsReference(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		if err := checkCursorVsReference(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func FuzzCursorVsReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := checkCursorVsReference(seed); err != nil {
			t.Fatal(err)
		}
	})
}
