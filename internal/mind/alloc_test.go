//go:build !race

package mind

import (
	"testing"

	"mind/internal/bitstr"
	"mind/internal/embed"
	"mind/internal/schema"
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
