//go:build !race

package mind

import (
	"runtime"
	"testing"

	"mind/internal/bitstr"
	"mind/internal/embed"
	"mind/internal/schema"
	"mind/internal/wire"
)

// TestAllocBudgetCoversRect is the alloc gate on the originator's answer
// path: the completion check runs once per cut tree per admitted answer,
// under n.mu, and walks the tree with a cursor on its own stack — no
// child rectangles, no clamped copy of the query, covered or not.
func TestAllocBudgetCoversRect(t *testing.T) {
	tree := embed.Uniform([]uint64{9999, 86400, 9999})
	rect := schema.NewRect(tree.Bounds())
	c := newCoverSet()
	for i := 0; i < 7; i++ { // seven of the eight depth-3 regions
		c.Add(bitstr.New(uint64(i), 3))
	}
	covered := false
	if allocs := testing.AllocsPerRun(100, func() { covered = c.CoversRect(tree, rect, bitstr.Empty) }); allocs != 0 || covered {
		t.Fatalf("one region missing: CoversRect = %v with %.0f allocations, budget is 0", covered, allocs)
	}
	c.Add(bitstr.New(6, 3).Sibling().Append(0))
	c.Add(bitstr.New(6, 3).Sibling().Append(1))
	if c.Len() != 1 {
		t.Fatalf("full cover did not collapse: %d codes", c.Len())
	}
	if allocs := testing.AllocsPerRun(100, func() { covered = c.CoversRect(tree, rect, bitstr.Empty) }); allocs != 0 || !covered {
		t.Fatalf("fully covered: CoversRect = %v with %.0f allocations, budget is 0", covered, allocs)
	}
}

// TestAllocBudgetAnswerHop is the alloc gate on the originator's share of
// a record query on the client-RPC path: admitting four decoded answers
// and splicing their runs decodes no record, so it allocates as often at
// 2 000 records per answer as at 500. Covering answers are spliced whole
// and reserve no id table, so they allocate a few headers whatever their
// size; answers that can overlap (no cover) are hashed into id tables,
// and allocate in bytes little more than those (decoding the 8 000
// records would add their 320 KB of values and 192 KB of record headers).
func TestAllocBudgetAnswerHop(t *testing.T) {
	measure := func(header func(int) (answer, *coverSet), perAnswer int) (allocs float64, bytes uint64) {
		var answers []*wire.QueryResp
		for _, f := range wideFrames(4, 4*perAnswer) {
			m, err := wire.Decode(f)
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, m.(*wire.QueryResp))
		}
		hop := func() {
			if got := admitAll(header, answers...); got.Len() != 4*perAnswer {
				t.Fatalf("%d records delivered, want %d", got.Len(), 4*perAnswer)
			}
		}
		allocs = testing.AllocsPerRun(50, hop)
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			hop()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	// The tables a set reserves for four answers of 2 000 ids: 4 096,
	// 8 192 and 16 384 slots.
	const tables = 8 * (4096 + 8192 + 16384)
	for _, adm := range []struct {
		name   string
		header func(int) (answer, *coverSet)
		bytes  uint64
	}{{"cover", covering, 1 << 10}, {"overlap", nil, tables + 16<<10}} {
		small, _ := measure(adm.header, 500)
		large, bytes := measure(adm.header, 2000)
		if small != large {
			t.Errorf("%s: admit + splice of 4 answers: %.1f allocations at 500 records per answer, %.1f at 2 000", adm.name, small, large)
		}
		t.Logf("%s: %.0f allocations, %d bytes", adm.name, large, bytes)
		if bytes > adm.bytes {
			t.Errorf("%s: admit + splice of 4 answers of 2 000 records allocates %d bytes, budget %d", adm.name, bytes, adm.bytes)
		}
	}
}

// TestAllocBudgetCellClip: every resolver visits its piece's rectangle
// clipped to the region's cell, computed in place in a cursor's scratch.
// The clip allocates nothing, nor does a record piece's walk of the
// primary or the replica store when nothing lies in its cell.
func TestAllocBudgetCellClip(t *testing.T) {
	sch := poolTestSchema()
	ix := newIndex(sch, embed.Uniform(sch.Bounds()))
	tree := ix.tree(0)
	inside, outside := bitstr.MustParse("01"), bitstr.MustParse("10")
	var buf embed.Scratch
	cell := tree.At(&buf, outside)
	mid := func(i int) uint64 { return cell.Rect().Lo[i]/2 + cell.Rect().Hi[i]/2 }
	for i := 0; i < 50; i++ { // records of another region only
		rec := schema.Record{mid(0), mid(1), mid(2)}
		ix.primary.Insert(0, rec)
		ix.replicas.Insert(0, rec)
	}
	p := piece{versions: []uint64{0}, rect: sch.FullRect(), region: inside}
	clip := func() {
		var buf embed.Scratch
		if _, ok := cellClip(&buf, tree, p.rect, p.region); !ok {
			t.Fatal("the full rectangle misses a cell")
		}
	}
	var out wire.RecList
	for name, f := range map[string]func(){
		"clip":    clip,
		"primary": func() { visitCell(ix, ix.primary, p, &out) },
		"replica": func() { out = filterToRegion(ix, p) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s: %.0f allocations, budget is 0", name, allocs)
		}
	}
	if out.Len() != 0 {
		t.Fatalf("a piece for %v returned %d records of %v", inside, out.Len(), outside)
	}
}

// TestAllocBudgetDedupSet: a two-generation dedup set warmed through two
// rotations has both generations at full size, and a rotation clears
// and reuses the previous generation's table, so Seen allocates nothing
// from then on — rotations included.
func TestAllocBudgetDedupSet(t *testing.T) {
	const capacity = 1024
	s := newDedupSet(capacity)
	k := uint64(0)
	for ; k < 2*capacity; k++ {
		s.Seen(k<<32 | k)
	}
	// 4·capacity fresh keys per run: four rotations.
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < 4*capacity; i++ {
			s.Seen(k<<32 | k)
			k++
		}
	})
	if allocs != 0 {
		t.Fatalf("a warmed dedup set allocates %.0f times per %d fresh keys, budget is 0", allocs, 4*capacity)
	}
}
