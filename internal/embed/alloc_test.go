//go:build !race

package embed

import (
	"testing"

	"mind/internal/bitstr"
	"mind/internal/schema"
)

// The cursor is returned by value and keeps its rectangle in a Scratch
// on the caller's stack, so a walk that returns a code allocates nothing.
// A cursor that escapes (initialised through a pointer receiver, or
// holding its rectangle inline) shows here as one allocation per call.

var allocSink bitstr.Code

func TestAllocBudgetPointCode(t *testing.T) {
	tr := Uniform([]uint64{^uint64(0), 86400, 5024})
	p := []uint64{123456789123, 4242, 100}
	if allocs := testing.AllocsPerRun(100, func() { allocSink = tr.PointCode(p, 19) }); allocs != 0 {
		t.Fatalf("PointCode allocates %.0f per call, budget is 0", allocs)
	}
}

func TestAllocBudgetQueryCode(t *testing.T) {
	tr := Uniform([]uint64{^uint64(0), 86400, 5024})
	q := schema.Rect{Lo: []uint64{1 << 32, 1000, 16}, Hi: []uint64{1<<32 + 9, 1003, 16}}
	if allocs := testing.AllocsPerRun(100, func() { allocSink = tr.QueryCode(q, 19) }); allocs != 0 {
		t.Fatalf("QueryCode allocates %.0f per call, budget is 0", allocs)
	}
}

// TestAllocBudgetDecompose holds BenchmarkDecompose's call to what the
// root-restarting walk it replaced spent, 15: the clamped query, one
// clipped rectangle per piece and the growth of the result.
func TestAllocBudgetDecompose(t *testing.T) {
	tr, q := decomposeFixture()
	if allocs := testing.AllocsPerRun(100, func() { _ = tr.Decompose(q, 7) }); allocs > 15 {
		t.Fatalf("Decompose allocates %.0f per call, budget is 15", allocs)
	}
}
