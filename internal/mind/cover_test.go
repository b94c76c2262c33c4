package mind

import (
	"cmp"
	"math/rand"
	randv2 "math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"mind/internal/bitstr"
	"mind/internal/embed"
	"mind/internal/flowgen"
	"mind/internal/histogram"
	"mind/internal/schema"
)

func TestCoverSetBasics(t *testing.T) {
	c := newCoverSet()
	region := bitstr.MustParse("01")
	if c.Covers(region) {
		t.Fatal("empty set covers")
	}
	c.Add(bitstr.MustParse("010"))
	if c.Covers(region) {
		t.Fatal("half covered reported complete")
	}
	c.Add(bitstr.MustParse("011"))
	if !c.Covers(region) {
		t.Fatal("sibling pair did not collapse to cover region")
	}
	if c.Len() != 1 {
		t.Fatalf("collapsed set size = %d", c.Len())
	}
}

func TestCoverSetShallowerWins(t *testing.T) {
	c := newCoverSet()
	c.Add(bitstr.MustParse("0"))
	if !c.Covers(bitstr.MustParse("0110")) {
		t.Fatal("shallow cover does not imply deep region")
	}
	// Adding an implied deeper code is a no-op.
	c.Add(bitstr.MustParse("01"))
	if c.Len() != 1 {
		t.Fatalf("implied add grew set to %d", c.Len())
	}
}

func TestCoverSetEmptyCode(t *testing.T) {
	c := newCoverSet()
	c.Add(bitstr.Empty)
	if !c.Covers(bitstr.MustParse("10101")) || !c.Covers(bitstr.Empty) {
		t.Fatal("root cover incomplete")
	}
}

func TestCoverSetDeepCollapse(t *testing.T) {
	c := newCoverSet()
	// Cover all 8 regions at depth 3 in shuffled order.
	order := []string{"000", "101", "011", "110", "001", "100", "010", "111"}
	for i, s := range order {
		c.Add(bitstr.MustParse(s))
		complete := c.Covers(bitstr.Empty)
		if i < len(order)-1 && complete {
			t.Fatalf("complete after %d/8 regions", i+1)
		}
	}
	if !c.Covers(bitstr.Empty) || c.Len() != 1 {
		t.Fatalf("full collapse failed: len=%d", c.Len())
	}
}

func TestCoverSetDuplicates(t *testing.T) {
	c := newCoverSet()
	c.Add(bitstr.MustParse("00"))
	c.Add(bitstr.MustParse("00"))
	if c.Covers(bitstr.MustParse("0")) {
		t.Fatal("duplicate adds faked coverage")
	}
	c.Add(bitstr.MustParse("01"))
	if !c.Covers(bitstr.MustParse("0")) {
		t.Fatal("coverage after dedup broken")
	}
}

func TestQuickCoverSetCompleteness(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	f := func() bool {
		// Pick a region and a partition depth; cover a random subset of
		// its depth-d subregions. Covers(region) must hold iff the
		// subset is the full partition.
		region := bitstr.Empty
		for i := 0; i < r.Intn(4); i++ {
			region = region.Append(r.Intn(2))
		}
		d := 1 + r.Intn(4)
		total := 1 << uint(d)
		skip := r.Intn(total + 1) // index to leave out; == total means cover all
		c := newCoverSet()
		for i := 0; i < total; i++ {
			if i == skip {
				continue
			}
			sub := region
			for b := d - 1; b >= 0; b-- {
				sub = sub.Append(i >> uint(b) & 1)
			}
			c.Add(sub)
		}
		return c.Covers(region) == (skip == total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCoversRectSkipsDisjointRegions(t *testing.T) {
	// Only regions intersecting the query rect need coverage.
	tr := embedUniform2()
	c := newCoverSet()
	// Query confined to the 00 region (low halves of both dims).
	rect := rect2(0, 0, 10, 10)
	// Covering only "00" must complete the whole space's root region.
	c.Add(bitstr.MustParse("00"))
	if !c.CoversRect(tr, rect, bitstr.Empty) {
		t.Fatal("rect-confined coverage not recognized")
	}
	// A rect spanning both dim-0 halves needs both sides.
	wide := rect2(0, 0, 99, 10)
	c2 := newCoverSet()
	c2.Add(bitstr.MustParse("00"))
	if c2.CoversRect(tr, wide, bitstr.Empty) {
		t.Fatal("half coverage accepted for a spanning rect")
	}
	c2.Add(bitstr.MustParse("10"))
	if !c2.CoversRect(tr, wide, bitstr.Empty) {
		t.Fatal("both intersecting regions covered but not recognized")
	}
}

func TestMissingRegionsDiagnostics(t *testing.T) {
	tr := embedUniform2()
	c := newCoverSet()
	wide := rect2(0, 0, 99, 99)
	c.Add(bitstr.MustParse("00"))
	c.Add(bitstr.MustParse("01"))
	c.Add(bitstr.MustParse("11"))
	missing := c.MissingRegions(tr, wide, bitstr.Empty, 8)
	if len(missing) != 1 || missing[0].String() != "10" {
		t.Fatalf("missing = %v, want [10]", missing)
	}
	// Complete coverage → nothing missing.
	c.Add(bitstr.MustParse("10"))
	if got := c.MissingRegions(tr, wide, bitstr.Empty, 8); len(got) != 0 {
		t.Fatalf("missing after completion = %v", got)
	}
	// Limit respected.
	empty := newCoverSet()
	if got := empty.MissingRegions(tr, wide, bitstr.Empty, 1); len(got) != 1 {
		t.Fatalf("limit ignored: %v", got)
	}
}

// refMissing is the coverage walk spelled with CodeRect alone: every
// step re-descends from the root, and the right half of a pinned cut is
// the one whose rectangle does not clear its sibling's.
func refMissing(c *coverSet, tree *embed.Tree, rect schema.Rect, region bitstr.Code, limit int) []bitstr.Code {
	var out []bitstr.Code
	var walk func(r bitstr.Code)
	walk = func(r bitstr.Code) {
		if len(out) >= limit || c.Covers(r) {
			return
		}
		if r.Len() >= bitstr.MaxLen || !c.hasExtension(r) {
			out = append(out, r)
			return
		}
		dim := r.Len() % tree.Dims()
		left, right := tree.CodeRect(r.Append(0)), tree.CodeRect(r.Append(1))
		if left.Intersects(rect) {
			walk(r.Append(0))
		}
		if right.Lo[dim] > left.Hi[dim] && right.Intersects(rect) {
			walk(r.Append(1))
		}
	}
	walk(region)
	return out
}

// TestPropCoverWalksAgree: over random embeddings (uniform, balanced, a
// single-coordinate dimension), random cover sets and rectangles with
// edges beyond the bounds, "complete" means exactly "nothing left to
// re-ask" — an op the first holds incomplete while the second lists
// nothing never finishes and never retransmits — and what is left to
// re-ask is what the root-restarting walk finds.
func TestPropCoverWalksAgree(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	coord := func(bound uint64) uint64 {
		if r.Intn(5) == 0 {
			return bound + 1 + r.Uint64()%(bound+2) // beyond the bound
		}
		return r.Uint64() % (bound + 1)
	}
	for i := 0; i < 3000; i++ {
		bounds := []uint64{255, 1023, 63}[:2+r.Intn(2)]
		if r.Intn(4) == 0 {
			bounds[r.Intn(len(bounds))] = 0
		}
		tree := embed.Uniform(bounds)
		if r.Intn(2) == 0 {
			h := histogram.MustNew(4, bounds)
			for k := 0; k < 100; k++ {
				p := make([]uint64, len(bounds))
				for d, b := range bounds {
					p[d] = r.Uint64() % (b/4 + 1)
				}
				h.AddPoint(p)
			}
			var err error
			if tree, err = embed.Balanced(h, 1+r.Intn(5)); err != nil {
				t.Fatal(err)
			}
		}
		rect := schema.Rect{Lo: make([]uint64, len(bounds)), Hi: make([]uint64, len(bounds))}
		for d, b := range bounds {
			lo, hi := coord(b), coord(b)
			if lo > hi {
				lo, hi = hi, lo
			}
			rect.Lo[d], rect.Hi[d] = lo, hi
		}
		region := tree.QueryCode(rect, r.Intn(4))
		// The answers of a query in flight: most pieces of a decomposition
		// under the region, and a few codes from anywhere.
		c := newCoverSet()
		for _, sub := range tree.Decompose(rect, region.Len()+r.Intn(5)) {
			if r.Intn(4) != 0 {
				c.Add(sub.Code)
			}
		}
		for k := r.Intn(3); k > 0; k-- {
			c.Add(bitstr.New(r.Uint64(), r.Intn(8)))
		}

		missing := c.MissingRegions(tree, rect, region, 64)
		if covers := c.CoversRect(tree, rect, region); covers != (len(missing) == 0) {
			t.Fatalf("case %d: bounds %v rect %v region %q cover %v: CoversRect = %v, MissingRegions = %v",
				i, bounds, rect, region, c.covered, covers, missing)
		}
		clamped := embed.Clamp(rect, bounds)
		got, want := c.MissingRegions(tree, clamped, region, 64), refMissing(c, tree, clamped, region, 64)
		if !slices.Equal(got, want) {
			t.Fatalf("case %d: bounds %v rect %v region %q cover %v: MissingRegions = %v, reference %v",
				i, bounds, clamped, region, c.covered, got, want)
		}
		if limit := 1 + r.Intn(3); len(c.MissingRegions(tree, clamped, region, limit)) != min(limit, len(want)) {
			t.Fatalf("case %d: limit %d not honoured", i, limit)
		}
	}
}

// BenchmarkCoversRect is the originator's completion check as most
// answers find it: seven of the eight depth-3 regions in, one to go.
func BenchmarkCoversRect(b *testing.B) {
	tree := embed.Uniform([]uint64{9999, 86400, 9999})
	rect := schema.NewRect(tree.Bounds())
	c := newCoverSet()
	for i := 0; i < 7; i++ {
		c.Add(bitstr.New(uint64(i), 3))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c.CoversRect(tree, rect, bitstr.Empty) {
			b.Fatal("covered with a region missing")
		}
	}
}

func embedUniform2() *embed.Tree { return embed.Uniform([]uint64{99, 99}) }

func rect2(lo0, lo1, hi0, hi1 uint64) schema.Rect {
	return schema.Rect{Lo: []uint64{lo0, lo1}, Hi: []uint64{hi0, hi1}}
}

// TestRecHashDistinct holds the content id (recID over a record's
// values) to what it is used for, a dedup key: over a million generated
// Index-2 records and the near-duplicates a structured data set is full
// of — every one-value edit among them, which recID never lets collide —
// two ids are equal only when the two records are.
func TestRecHashDistinct(t *testing.T) {
	// Record i of the generated set: 1 100 destination prefixes × 1 000
	// thirty-second windows, the other attributes drawn per record.
	const prefixes, windows = 1100, 1000
	generated := func(i int) schema.Record {
		r := randv2.New(randv2.NewPCG(uint64(i), 21)) // cheap to seed, unlike math/rand
		return schema.Record{
			flowgen.DstPrefix(i / windows), 1112659200 + 30*uint64(i%windows),
			schema.OctetsThreshold + r.Uint64N(schema.OctetsBound),
			flowgen.SrcPrefix(r.IntN(1 << 14)), r.Uint64N(32),
		}
	}
	var near []schema.Record
	for i := 0; i < prefixes*windows; i += 997 {
		base := generated(i)
		variant := func(edit func(r schema.Record)) {
			r := base.Clone()
			edit(r)
			near = append(near, r)
		}
		for a := range base {
			variant(func(r schema.Record) { r[a]++ })
			variant(func(r schema.Record) { r[a]-- })
			variant(func(r schema.Record) { r[a] ^= 1 << 63 })
			variant(func(r schema.Record) { r[a] = 0 })
			for b := a + 1; b < len(base); b++ {
				variant(func(r schema.Record) { r[a], r[b] = r[b], r[a] })
			}
		}
		near = append(near, append(base.Clone(), 0))
	}
	for arity := 0; arity <= 8; arity++ {
		near = append(near, make(schema.Record, arity))
	}
	record := func(i int) schema.Record {
		if i < prefixes*windows {
			return generated(i)
		}
		return near[i-prefixes*windows]
	}

	type entry struct {
		id uint64
		i  int32
	}
	ids := make([]entry, prefixes*windows+len(near))
	for i := range ids {
		ids[i] = entry{recID(record(i)), int32(i)}
	}
	slices.SortFunc(ids, func(a, b entry) int { return cmp.Compare(a.id, b.id) })
	distinct := len(ids)
	for k := 1; k < len(ids); k++ {
		if ids[k].id != ids[k-1].id {
			continue
		}
		a, b := record(int(ids[k-1].i)), record(int(ids[k].i))
		if !slices.Equal(a, b) {
			t.Fatalf("records %v and %v share id %#x", a, b, ids[k].id)
		}
		distinct--
	}
	if distinct < 1_000_000 {
		t.Fatalf("only %d distinct records checked", distinct)
	}
	if recID(record(0)) != recID(record(0).Clone()) {
		t.Fatal("id not deterministic")
	}
}

// TestRecHashAvalanche: flipping any one bit of a record's values flips
// every bit of its content id about half the time — the chain of one
// xorshift-multiply round per value is as strong as a finaliser per
// value — at the arities of a short record and of an Index-2 record.
func TestRecHashAvalanche(t *testing.T) {
	const samples = 2000
	r := rand.New(rand.NewSource(7))
	for _, arity := range []int{1, 2, 3, 5} {
		rec := make([]uint64, arity)
		for bit := 0; bit < 64*arity; bit++ {
			var flips [64]int
			for s := 0; s < samples; s++ {
				for i := range rec {
					rec[i] = r.Uint64()
				}
				id := recID(rec)
				rec[bit/64] ^= 1 << (bit % 64)
				diff := id ^ recID(rec)
				for out := range flips {
					flips[out] += int(diff >> out & 1)
				}
			}
			for out, n := range flips {
				if n < samples*2/5 || n > samples*3/5 {
					t.Fatalf("arity %d: input bit %d flips id bit %d in %d of %d samples", arity, bit, out, n, samples)
				}
			}
		}
	}
}
