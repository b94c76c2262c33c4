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
// 2 000 records per answer as at 500 — the accumulator, the spliced
// run list and the id tables — and in bytes little more than those
// tables (decoding the 8 000 records would add their 320 KB of values
// and 192 KB of record headers).
func TestAllocBudgetAnswerHop(t *testing.T) {
	measure := func(perAnswer int) (allocs float64, bytes uint64) {
		var answers []*wire.QueryResp
		for _, f := range wideFrames(4, 4*perAnswer) {
			m, err := wire.Decode(f)
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, m.(*wire.QueryResp))
		}
		hop := func() {
			if got := admitAll(answers...); got.Len() != 4*perAnswer {
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
	small, _ := measure(500)
	large, bytes := measure(2000)
	if small != large {
		t.Fatalf("admit + splice of 4 answers: %.1f allocations at 500 records per answer, %.1f at 2 000", small, large)
	}
	// The tables a set reserves for four answers of 2 000 ids: 4 096,
	// 8 192 and 16 384 slots.
	const tables = 8 * (4096 + 8192 + 16384)
	if bytes > tables+16<<10 {
		t.Fatalf("admit + splice of 4 answers of 2 000 records allocates %d bytes, want the id tables (%d) and a few headers", bytes, tables)
	}
}
