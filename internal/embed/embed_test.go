package embed

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mind/internal/bitstr"
	"mind/internal/histogram"
	"mind/internal/schema"
)

func uniform2D() *Tree { return Uniform([]uint64{99, 99}) }

func TestUniformPointCode2D(t *testing.T) {
	tr := uniform2D()
	// Level 0 cuts dim0 at 49; level 1 cuts dim1 at 49.
	cases := []struct {
		p    []uint64
		code string
	}{
		{[]uint64{0, 0}, "00"},
		{[]uint64{0, 99}, "01"},
		{[]uint64{99, 0}, "10"},
		{[]uint64{99, 99}, "11"},
		{[]uint64{49, 49}, "00"},
		{[]uint64{50, 50}, "11"},
	}
	for _, c := range cases {
		got := tr.PointCode(c.p, 2)
		if got.String() != c.code {
			t.Errorf("PointCode(%v) = %s, want %s", c.p, got, c.code)
		}
	}
}

func TestPointCodePrefixStability(t *testing.T) {
	// A point's depth-k code must be a prefix of its depth-(k+1) code.
	tr := uniform2D()
	p := []uint64{37, 81}
	prev := bitstr.Empty
	for d := 1; d <= 20; d++ {
		c := tr.PointCode(p, d)
		if !prev.IsPrefixOf(c) {
			t.Fatalf("depth %d code %s does not extend %s", d, c, prev)
		}
		prev = c
	}
}

func TestPointCodeClamping(t *testing.T) {
	tr := uniform2D()
	a := tr.PointCode([]uint64{1000, 1000}, 4)
	b := tr.PointCode([]uint64{99, 99}, 4)
	if !a.Equal(b) {
		t.Errorf("out-of-bound point code %s != clamped %s", a, b)
	}
}

func TestCodeRectRoundTrip(t *testing.T) {
	tr := uniform2D()
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		p := []uint64{r.Uint64() % 100, r.Uint64() % 100}
		c := tr.PointCode(p, 8)
		rect := tr.CodeRect(c)
		if !rect.Contains(p) {
			t.Fatalf("CodeRect(%s) = %v does not contain %v", c, rect, p)
		}
	}
}

func TestCodeRectPartition(t *testing.T) {
	// At any depth, sibling regions are disjoint and cover the parent.
	tr := uniform2D()
	for _, s := range []string{"0", "01", "0110", "111"} {
		c := bitstr.MustParse(s)
		parent := tr.CodeRect(c)
		l := tr.CodeRect(c.Append(0))
		r := tr.CodeRect(c.Append(1))
		if l.Intersects(r) {
			t.Errorf("children of %s intersect: %v vs %v", c, l, r)
		}
		if !parent.ContainsRect(l) || !parent.ContainsRect(r) {
			t.Errorf("children of %s escape parent", c)
		}
	}
}

func TestQueryCode(t *testing.T) {
	tr := uniform2D()
	// Query wholly in dim0-low half but straddling dim1 cut: code "0".
	q := schema.Rect{Lo: []uint64{0, 20}, Hi: []uint64{40, 80}}
	if got := tr.QueryCode(q, 10); got.String() != "0" {
		t.Errorf("QueryCode = %s, want 0", got)
	}
	// Query straddling dim0 cut: empty code.
	q2 := schema.Rect{Lo: []uint64{40, 0}, Hi: []uint64{60, 10}}
	if got := tr.QueryCode(q2, 10); !got.IsEmpty() {
		t.Errorf("QueryCode = %s, want empty", got)
	}
	// Point query descends to maxDepth.
	q3 := schema.Rect{Lo: []uint64{7, 7}, Hi: []uint64{7, 7}}
	if got := tr.QueryCode(q3, 6); got.Len() != 6 {
		t.Errorf("point query code len = %d", got.Len())
	}
	// Query code must be a prefix of the point code of any point inside.
	pc := tr.PointCode([]uint64{30, 50}, 10)
	qc := tr.QueryCode(q, 10)
	if !qc.IsPrefixOf(pc) {
		t.Errorf("query code %s not prefix of inside point code %s", qc, pc)
	}
}

func TestDecomposeCoversQuery(t *testing.T) {
	tr := uniform2D()
	q := schema.Rect{Lo: []uint64{10, 10}, Hi: []uint64{90, 90}}
	subs := tr.Decompose(q, 4)
	if len(subs) == 0 {
		t.Fatal("no sub-queries")
	}
	// Every point of the query must be inside exactly one sub-query rect,
	// and each sub code must own its rect.
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 300; i++ {
		p := []uint64{10 + r.Uint64()%81, 10 + r.Uint64()%81}
		hits := 0
		for _, s := range subs {
			if s.Rect.Contains(p) {
				hits++
				if !s.Code.Equal(tr.PointCode(p, s.Code.Len())) {
					t.Fatalf("point %v in sub %s but codes disagree", p, s.Code)
				}
			}
		}
		if hits != 1 {
			t.Fatalf("point %v covered by %d sub-queries", p, hits)
		}
	}
	// Sub-rects must stay inside the query.
	for _, s := range subs {
		if !q.ContainsRect(s.Rect) {
			t.Errorf("sub %s rect %v escapes query", s.Code, s.Rect)
		}
		if s.Code.Len() != 4 {
			t.Errorf("sub code %s has depth %d", s.Code, s.Code.Len())
		}
	}
}

func TestDecomposeSmallQueryOneSub(t *testing.T) {
	tr := uniform2D()
	q := schema.Rect{Lo: []uint64{1, 1}, Hi: []uint64{3, 3}}
	subs := tr.Decompose(q, 2)
	if len(subs) != 1 || subs[0].Code.String() != "00" {
		t.Errorf("small query decomposed to %v", subs)
	}
	// Depth 0 decomposition is the query itself at the root.
	subs0 := tr.Decompose(q, 0)
	if len(subs0) != 1 || !subs0[0].Code.IsEmpty() {
		t.Errorf("depth-0 decompose = %v", subs0)
	}
}

func TestBalancedCutsEqualizeSkew(t *testing.T) {
	// 90% of the data in the low corner; balanced cuts must equalize
	// per-region counts while uniform cuts leave one hot region.
	bounds := []uint64{9999, 9999}
	h := histogram.MustNew(16, bounds)
	r := rand.New(rand.NewSource(23))
	pts := make([][]uint64, 0, 2000)
	for i := 0; i < 1800; i++ {
		p := []uint64{r.Uint64() % 500, r.Uint64() % 500}
		pts = append(pts, p)
		h.AddPoint(p)
	}
	for i := 0; i < 200; i++ {
		p := []uint64{r.Uint64() % 10000, r.Uint64() % 10000}
		pts = append(pts, p)
		h.AddPoint(p)
	}
	depth := 4 // 16 regions
	bal, err := Balanced(h, depth)
	if err != nil {
		t.Fatal(err)
	}
	uni := Uniform(bounds)
	spread := func(tr *Tree) (max, min int) {
		counts := map[uint64]int{}
		for _, p := range pts {
			counts[tr.PointCode(p, depth).Uint64()]++
		}
		min = len(pts)
		for i := 0; i < 1<<uint(depth); i++ {
			c := counts[uint64(i)]
			if c > max {
				max = c
			}
			if c < min {
				min = c
			}
		}
		return max, min
	}
	uMax, _ := spread(uni)
	bMax, bMin := spread(bal)
	if uMax < 1000 {
		t.Fatalf("uniform cuts should leave a hot region, max = %d", uMax)
	}
	if bMax > 3*len(pts)/16 {
		t.Errorf("balanced max region = %d, want near %d", bMax, len(pts)/16)
	}
	if bMin == 0 {
		t.Errorf("balanced cuts left an empty region")
	}
}

func TestBalancedDepthValidation(t *testing.T) {
	h := histogram.MustNew(4, []uint64{99})
	if _, err := Balanced(h, -1); err == nil {
		t.Error("accepted negative depth")
	}
	if _, err := Balanced(h, 30); err == nil {
		t.Error("accepted explicit depth 30")
	}
	tr, err := Balanced(h, 0)
	if err != nil || tr.ExplicitDepth() != 0 {
		t.Errorf("depth-0 balanced: %v", err)
	}
}

func TestBalancedEmptyHistogramFallsBack(t *testing.T) {
	h := histogram.MustNew(4, []uint64{99, 99})
	tr, err := Balanced(h, 3)
	if err != nil {
		t.Fatal(err)
	}
	uni := Uniform([]uint64{99, 99})
	r := rand.New(rand.NewSource(24))
	for i := 0; i < 100; i++ {
		p := []uint64{r.Uint64() % 100, r.Uint64() % 100}
		if !tr.PointCode(p, 6).Equal(uni.PointCode(p, 6)) {
			t.Fatalf("empty-histogram balanced tree differs from uniform at %v", p)
		}
	}
}

func TestDegenerateDimension(t *testing.T) {
	// A dimension with a single coordinate must not break code totality.
	tr := Uniform([]uint64{0, 99})
	a := tr.PointCode([]uint64{0, 10}, 6)
	b := tr.PointCode([]uint64{0, 90}, 6)
	if a.Equal(b) {
		t.Error("points differing on live dim got equal codes")
	}
	rect := tr.CodeRect(a)
	if !rect.Contains([]uint64{0, 10}) {
		t.Error("degenerate CodeRect broken")
	}
	// Decompose across the degenerate dim.
	q := schema.Rect{Lo: []uint64{0, 0}, Hi: []uint64{0, 99}}
	subs := tr.Decompose(q, 4)
	for _, s := range subs {
		if !s.Rect.Valid() {
			t.Errorf("invalid sub rect %v", s.Rect)
		}
	}
}

// cursorChildren steps the cursor into each non-empty half of its region
// and back, returning what it stood on.
func cursorChildren(c *Cursor) []SubQuery {
	var kids []SubQuery
	cut := c.Cut()
	for bit := 0; bit <= 1; bit++ {
		if bit == 1 && !cut.Right {
			break
		}
		undo := c.Descend(cut, bit)
		kids = append(kids, SubQuery{Code: c.Code(), Rect: c.Rect().Clone()})
		c.Ascend(undo)
	}
	return kids
}

func TestChildrenMirrorsDecompose(t *testing.T) {
	// The halves a cursor steps into must be disjoint, cover the parent,
	// match CodeRect, and be the regions Decompose cuts the parent into.
	tr := uniform2D()
	codes := []string{"", "0", "01", "0110", "111"}
	for _, s := range codes {
		var c bitstr.Code
		if s != "" {
			c = bitstr.MustParse(s)
		}
		parent := tr.CodeRect(c)
		var buf Scratch
		cur := tr.At(&buf, c)
		kids := cursorChildren(&cur)
		if len(kids) != 2 {
			t.Fatalf("%d children for %q", len(kids), s)
		}
		if !cur.Code().Equal(c) || !sameRect(cur.Rect(), parent) {
			t.Errorf("cursor left at %s %v, want %q %v", cur.Code(), cur.Rect(), s, parent)
		}
		for _, k := range kids {
			if !parent.ContainsRect(k.Rect) {
				t.Errorf("child %s escapes parent %q", k.Code, s)
			}
			if got := tr.CodeRect(k.Code); !sameRect(got, k.Rect) {
				t.Errorf("child %s rect %v != CodeRect %v", k.Code, k.Rect, got)
			}
		}
		if kids[0].Rect.Intersects(kids[1].Rect) {
			t.Errorf("children of %q intersect", s)
		}
		dim := c.Len() % tr.Dims()
		if kids[0].Rect.Lo[dim] != parent.Lo[dim] || kids[0].Rect.Hi[dim]+1 != kids[1].Rect.Lo[dim] || kids[1].Rect.Hi[dim] != parent.Hi[dim] {
			t.Errorf("children of %q %v, %v do not cover %v", s, kids[0].Rect, kids[1].Rect, parent)
		}
		subs := tr.Decompose(parent, c.Len()+1)
		if len(subs) != 2 {
			t.Fatalf("Decompose cut %q into %d pieces", s, len(subs))
		}
		for i, sub := range subs {
			if !sub.Code.Equal(kids[i].Code) || !sameRect(sub.Rect, kids[i].Rect) {
				t.Errorf("Decompose piece %s %v != child %s %v", sub.Code, sub.Rect, kids[i].Code, kids[i].Rect)
			}
		}
	}
}

func TestChildrenDegenerate(t *testing.T) {
	// A single-coordinate dimension pins cuts: the right half is empty and
	// no walk visits it, exactly as Decompose skips it.
	tr := Uniform([]uint64{0, 99})
	// At depth 0 the cut dim is 0 with interval [0,0] → only a left child.
	var buf Scratch
	cur := tr.Root(&buf)
	if cut := cur.Cut(); cut.Right || cut.Dim != 0 || cut.At != 0 {
		t.Fatalf("degenerate cut = %+v", cut)
	}
	kids := cursorChildren(&cur)
	if len(kids) != 1 || kids[0].Code.String() != "0" {
		t.Fatalf("degenerate children = %v", kids)
	}
	for _, sub := range tr.Decompose(schema.NewRect(tr.Bounds()), 5) {
		for d := 0; d < sub.Code.Len(); d += 2 {
			if sub.Code.Bit(d) != 0 {
				t.Fatalf("Decompose visited the empty right half: %s", sub.Code)
			}
		}
	}
	// A cursor can still be placed on the empty half a hostile code names:
	// it is the region's top coordinate alone.
	empty := tr.At(&buf, bitstr.MustParse("1"))
	if !sameRect(empty.Rect(), schema.Rect{Lo: []uint64{0, 0}, Hi: []uint64{0, 99}}) {
		t.Fatalf("empty right half = %v", empty.Rect())
	}
	// A walk can reach the deepest code and stops there.
	deep := tr.At(&buf, bitstr.New(0, MaxDepth))
	if deep.Code().Len() != MaxDepth || !deep.Rect().Valid() {
		t.Fatalf("cursor at max depth = %s %v", deep.Code(), deep.Rect())
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	h := histogram.MustNew(8, []uint64{999, ^uint64(0), 5024})
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 500; i++ {
		h.AddPoint([]uint64{r.Uint64() % 1000, r.Uint64(), r.Uint64() % 5025})
	}
	tr, err := Balanced(h, 6)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(tr.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		p := []uint64{r.Uint64() % 1000, r.Uint64(), r.Uint64() % 5025}
		if !got.PointCode(p, 12).Equal(tr.PointCode(p, 12)) {
			t.Fatalf("round-tripped tree disagrees at %v", p)
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	tr := Uniform([]uint64{99})
	good := tr.Marshal()
	for i, c := range [][]byte{nil, good[:2], good[:len(good)-1]} {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("corrupt case %d accepted", i)
		}
	}
	bad := append([]byte{}, good...)
	bad[0] = 0 // zero dims
	if _, err := Unmarshal(bad); err == nil {
		t.Error("zero dims accepted")
	}
}

func TestQuickPointInOwnCodeRect(t *testing.T) {
	bounds := []uint64{^uint64(0), 86400 * 3, 5024}
	h := histogram.MustNew(8, bounds)
	r := rand.New(rand.NewSource(26))
	for i := 0; i < 1000; i++ {
		h.AddPoint([]uint64{r.Uint64(), r.Uint64() % (86400 * 3), r.Uint64() % 100})
	}
	bal, err := Balanced(h, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Tree{Uniform(bounds), bal} {
		f := func() bool {
			p := []uint64{r.Uint64(), r.Uint64() % (86400*3 + 1), r.Uint64() % 5025}
			d := 1 + r.Intn(20)
			c := tr.PointCode(p, d)
			return c.Len() == d && tr.CodeRect(c).Contains(p)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Error(err)
		}
	}
}

func TestQuickQueryCodePrefixOfSubCodes(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	tr := Uniform([]uint64{999, 999, 999})
	f := func() bool {
		q := schema.Rect{Lo: make([]uint64, 3), Hi: make([]uint64, 3)}
		for i := 0; i < 3; i++ {
			a, b := r.Uint64()%1000, r.Uint64()%1000
			if a > b {
				a, b = b, a
			}
			q.Lo[i], q.Hi[i] = a, b
		}
		qc := tr.QueryCode(q, 9)
		for _, s := range tr.Decompose(q, 9) {
			if !qc.IsPrefixOf(s.Code) {
				return false
			}
			if !s.Rect.Valid() || !q.ContainsRect(s.Rect) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDecomposeDisjointCover(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	tr := Uniform([]uint64{999, 999})
	f := func() bool {
		q := schema.Rect{Lo: make([]uint64, 2), Hi: make([]uint64, 2)}
		for i := 0; i < 2; i++ {
			a, b := r.Uint64()%1000, r.Uint64()%1000
			if a > b {
				a, b = b, a
			}
			q.Lo[i], q.Hi[i] = a, b
		}
		subs := tr.Decompose(q, 6)
		// Codes pairwise non-prefix (disjoint regions).
		for i := range subs {
			for j := i + 1; j < len(subs); j++ {
				if subs[i].Code.IsPrefixOf(subs[j].Code) || subs[j].Code.IsPrefixOf(subs[i].Code) {
					return false
				}
			}
		}
		// Random interior points covered exactly once.
		for k := 0; k < 20; k++ {
			p := []uint64{q.Lo[0] + r.Uint64()%(q.Hi[0]-q.Lo[0]+1), q.Lo[1] + r.Uint64()%(q.Hi[1]-q.Lo[1]+1)}
			hits := 0
			for _, s := range subs {
				if s.Rect.Contains(p) {
					hits++
				}
			}
			if hits != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPointCodeUniform(b *testing.B) {
	tr := Uniform([]uint64{^uint64(0), 86400, 5024})
	p := []uint64{123456789123, 4242, 100}
	for _, depth := range []int{16, 19} {
		b.Run(fmt.Sprint("depth", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = tr.PointCode(p, depth)
			}
		})
	}
}

func decomposeFixture() (*Tree, schema.Rect) {
	return Uniform([]uint64{^uint64(0), 86400, 5024}), schema.Rect{
		Lo: []uint64{1 << 32, 1000, 16},
		Hi: []uint64{1 << 33, 1300, 5024},
	}
}

func BenchmarkDecompose(b *testing.B) {
	tr, q := decomposeFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Decompose(q, 7)
	}
}
