package schema

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testSchema() *Schema {
	return &Schema{
		Tag: "t",
		Attrs: []Attr{
			{Name: "a", Kind: KindIPv4},
			{Name: "b", Kind: KindTime, Max: 1000},
			{Name: "c", Kind: KindUint, Max: 500},
			{Name: "p", Kind: KindNode},
		},
		IndexDims: 3,
	}
}

func TestValidate(t *testing.T) {
	s := testSchema()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := []*Schema{
		{Tag: "", Attrs: []Attr{{Name: "a"}}, IndexDims: 1},
		{Tag: "x", Attrs: nil, IndexDims: 1},
		{Tag: "x", Attrs: []Attr{{Name: "a"}}, IndexDims: 0},
		{Tag: "x", Attrs: []Attr{{Name: "a"}}, IndexDims: 2},
		{Tag: "x", Attrs: []Attr{{Name: "a"}, {Name: "a"}}, IndexDims: 1},
		{Tag: "x", Attrs: []Attr{{Name: ""}}, IndexDims: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
}

func TestAttrLookupAndBounds(t *testing.T) {
	s := testSchema()
	if s.AttrIndex("c") != 2 || s.AttrIndex("zzz") != -1 {
		t.Error("AttrIndex wrong")
	}
	if s.Dims() != 3 || s.Arity() != 4 {
		t.Error("Dims/Arity wrong")
	}
	b := s.Bounds()
	if b[0] != ^uint64(0) || b[1] != 1000 || b[2] != 500 {
		t.Errorf("Bounds = %v", b)
	}
	if (Attr{Max: 0}).Bound() != ^uint64(0) {
		t.Error("zero Max must mean full range")
	}
}

func TestRecordPointClamping(t *testing.T) {
	s := testSchema()
	r := Record{7, 5000, 123, 9}
	if err := s.CheckRecord(r); err != nil {
		t.Fatal(err)
	}
	p := r.Point(s)
	if p[0] != 7 || p[1] != 1000 || p[2] != 123 {
		t.Errorf("Point = %v (timestamp should clamp to 1000)", p)
	}
	if err := s.CheckRecord(Record{1, 2}); err == nil {
		t.Error("short record accepted")
	}
	c := r.Clone()
	c[0] = 99
	if r[0] != 7 {
		t.Error("Clone aliases storage")
	}
}

func TestSchemaCloneString(t *testing.T) {
	s := testSchema()
	c := s.Clone()
	c.Attrs[0].Name = "changed"
	if s.Attrs[0].Name != "a" {
		t.Error("Clone aliases attrs")
	}
	if s.String() == "" || s.String() == c.String() {
		t.Errorf("String: %s vs %s", s, c)
	}
}

func TestRectBasics(t *testing.T) {
	s := testSchema()
	full := s.FullRect()
	if !full.Valid() || full.Dims() != 3 {
		t.Fatalf("full rect invalid: %v", full)
	}
	r := Rect{Lo: []uint64{10, 100, 0}, Hi: []uint64{20, 200, 500}}
	if !r.Valid() {
		t.Fatal("rect should be valid")
	}
	if !r.Contains([]uint64{10, 200, 250}) {
		t.Error("boundary point must be inside (inclusive)")
	}
	if r.Contains([]uint64{9, 150, 250}) || r.Contains([]uint64{15, 201, 250}) {
		t.Error("outside point reported inside")
	}
	if (Rect{Lo: []uint64{5}, Hi: []uint64{4}}).Valid() {
		t.Error("inverted rect reported valid")
	}
	if (Rect{}).Valid() {
		t.Error("empty rect reported valid")
	}
}

func TestRectIntersection(t *testing.T) {
	a := Rect{Lo: []uint64{0, 0}, Hi: []uint64{10, 10}}
	b := Rect{Lo: []uint64{10, 5}, Hi: []uint64{20, 8}}
	c := Rect{Lo: []uint64{11, 0}, Hi: []uint64{20, 10}}
	if !a.Intersects(b) {
		t.Error("touching rects must intersect (inclusive bounds)")
	}
	if a.Intersects(c) {
		t.Error("disjoint rects reported intersecting")
	}
	got, ok := a.Intersect(b)
	if !ok || got.Lo[0] != 10 || got.Hi[0] != 10 || got.Lo[1] != 5 || got.Hi[1] != 8 {
		t.Errorf("Intersect = %v, %v", got, ok)
	}
	if _, ok := a.Intersect(c); ok {
		t.Error("Intersect of disjoint rects returned ok")
	}
	if !a.ContainsRect(Rect{Lo: []uint64{1, 1}, Hi: []uint64{9, 10}}) {
		t.Error("ContainsRect false negative")
	}
	if a.ContainsRect(b) {
		t.Error("ContainsRect false positive")
	}
}

func TestRectContainsRecordClamps(t *testing.T) {
	s := testSchema()
	// timestamp bound is 1000; a record at 5000 clamps to 1000 and so
	// falls in the topmost region.
	r := Rect{Lo: []uint64{0, 900, 0}, Hi: []uint64{^uint64(0), 1000, 500}}
	rec := Record{1, 5000, 10, 0}
	if !r.ContainsRecord(s, rec) {
		t.Error("clamped record must land in topmost region")
	}
	r2 := Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{^uint64(0), 899, 500}}
	if r2.ContainsRecord(s, rec) {
		t.Error("clamped record matched low region")
	}
}

func TestPaperIndices(t *testing.T) {
	horizon := uint64(86400 * 3)
	for _, s := range []*Schema{Index1(horizon), Index2(horizon), Index3(horizon)} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Tag, err)
		}
		if s.IndexDims != 3 {
			t.Errorf("%s: IndexDims = %d", s.Tag, s.IndexDims)
		}
		if s.Attrs[1].Max != horizon {
			t.Errorf("%s: time horizon = %d", s.Tag, s.Attrs[1].Max)
		}
	}
	if Index3(horizon).AttrIndex("dest_port") != 4 {
		t.Error("Index3 missing dest_port payload attribute")
	}
}

func TestIPv4Helpers(t *testing.T) {
	ip := IPv4(192, 168, 32, 7)
	if ip != 0xc0a82007 {
		t.Fatalf("IPv4 = %x", ip)
	}
	if FormatIPv4(ip) != "192.168.32.7" {
		t.Errorf("FormatIPv4 = %s", FormatIPv4(ip))
	}
	if Prefix24(ip) != 0xc0a82000 {
		t.Errorf("Prefix24 = %x", Prefix24(ip))
	}
	lo, hi := PrefixRange(IPv4(192, 168, 32, 0), 20)
	if lo != IPv4(192, 168, 32, 0) || hi != IPv4(192, 168, 47, 255) {
		t.Errorf("PrefixRange /20 = %s..%s", FormatIPv4(lo), FormatIPv4(hi))
	}
	lo, hi = PrefixRange(ip, 32)
	if lo != ip || hi != ip {
		t.Error("/32 range must be the host itself")
	}
	lo, hi = PrefixRange(ip, 0)
	if lo != 0 || hi != 0xffffffff {
		t.Error("/0 range must cover all of IPv4")
	}
	defer func() {
		if recover() == nil {
			t.Error("PrefixRange accepted bad plen")
		}
	}()
	PrefixRange(ip, 33)
}

func TestQuickPrefixRangeContains(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		ip := uint64(r.Uint32())
		plen := r.Intn(33)
		lo, hi := PrefixRange(ip, plen)
		return lo <= ip&0xffffffff == (ip >= lo && ip <= hi) || (ip >= lo && ip <= hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	randRect := func() Rect {
		d := 3
		rc := Rect{Lo: make([]uint64, d), Hi: make([]uint64, d)}
		for i := 0; i < d; i++ {
			a, b := r.Uint64()%1000, r.Uint64()%1000
			if a > b {
				a, b = b, a
			}
			rc.Lo[i], rc.Hi[i] = a, b
		}
		return rc
	}
	f := func() bool {
		a, b := randRect(), randRect()
		if a.Intersects(b) != b.Intersects(a) {
			return false
		}
		ia, oka := a.Intersect(b)
		ib, okb := b.Intersect(a)
		if oka != okb {
			return false
		}
		if !oka {
			return true
		}
		// Intersection is inside both and symmetric.
		for i := range ia.Lo {
			if ia.Lo[i] != ib.Lo[i] || ia.Hi[i] != ib.Hi[i] {
				return false
			}
		}
		return a.ContainsRect(ia) && b.ContainsRect(ia)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCutDim pins the schedule's dimension per depth for every shape a
// schema can give it: 1 to 4 indexed dimensions, with and without a time
// attribute, a time attribute that is payload only (not indexed, so
// round robin), and two time attributes (the first is the one favoured,
// the second is cut as one of the others).
func TestCutDim(t *testing.T) {
	attrs := func(kinds ...Kind) []Attr {
		out := make([]Attr, len(kinds))
		for i, k := range kinds {
			out[i] = Attr{Name: string(rune('a' + i)), Kind: k}
		}
		return out
	}
	u, tm := KindUint, KindTime
	for _, tc := range []struct {
		name  string
		kinds []Kind
		dims  int
		want  []int // depths 0, 1, 2, …
	}{
		{"1 dim", []Kind{u, u}, 1, []int{0, 0, 0, 0, 0, 0}},
		{"1 dim, time", []Kind{tm, u}, 1, []int{0, 0, 0, 0, 0, 0}},
		{"2 dims", []Kind{u, u}, 2, []int{0, 1, 0, 1, 0, 1}},
		{"2 dims, time@1", []Kind{u, tm}, 2, []int{1, 1, 0, 1, 1, 0, 1, 1, 0}},
		{"3 dims", []Kind{u, u, u, u}, 3, []int{0, 1, 2, 0, 1, 2, 0}},
		{"3 dims, time payload only", []Kind{u, u, u, tm}, 3, []int{0, 1, 2, 0, 1, 2, 0}},
		{"3 dims, time@0", []Kind{tm, u, u}, 3, []int{0, 0, 1, 0, 0, 2, 0, 0, 1}},
		{"3 dims, time@1 (Index-2)", []Kind{u, tm, u, u}, 3, []int{1, 1, 0, 1, 1, 2, 1, 1, 0}},
		{"3 dims, time@2", []Kind{u, u, tm}, 3, []int{2, 2, 0, 2, 2, 1, 2, 2, 0}},
		{"3 dims, time@1 and @2", []Kind{u, tm, tm}, 3, []int{1, 1, 0, 1, 1, 2, 1, 1, 0}},
		{"4 dims", []Kind{u, u, u, u}, 4, []int{0, 1, 2, 3, 0, 1, 2, 3}},
		{"4 dims, time@2", []Kind{u, u, tm, u}, 4, []int{2, 2, 0, 2, 2, 1, 2, 2, 3, 2, 2, 0}},
	} {
		sch := &Schema{Tag: "s", Attrs: attrs(tc.kinds...), IndexDims: tc.dims}
		for k, want := range tc.want {
			if got := CutDim(k, sch.Dims(), sch.TimeDim()); got != want {
				t.Errorf("%s: depth %d cuts dim %d, want %d", tc.name, k, got, want)
			}
		}
	}
}
