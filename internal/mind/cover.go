package mind

import (
	"mind/internal/bitstr"
	"mind/internal/embed"
	"mind/internal/schema"
)

// coverSet tracks which code-space regions of a query have been answered.
// The originator adds each response's cover code; sibling regions
// collapse into their parent, so complete coverage of the query region
// reduces to containing a prefix of it (§3.6: the originator determines
// completion by examining which nodes responded).
type coverSet struct {
	covered map[bitstr.Code]bool
}

func newCoverSet() *coverSet {
	return &coverSet{covered: make(map[bitstr.Code]bool)}
}

// Add records a covered region and collapses complete sibling pairs.
func (c *coverSet) Add(code bitstr.Code) {
	// Already implied by a shallower covered region?
	for k := code; ; {
		if c.covered[k] {
			return
		}
		if k.IsEmpty() {
			break
		}
		k = k.Parent()
	}
	for {
		c.covered[code] = true
		if code.IsEmpty() {
			return
		}
		sib := code.Sibling()
		if !c.covered[sib] {
			return
		}
		delete(c.covered, code)
		delete(c.covered, sib)
		code = code.Parent()
	}
}

// Covers reports whether the region is fully covered.
func (c *coverSet) Covers(region bitstr.Code) bool {
	for k := region; ; {
		if c.covered[k] {
			return true
		}
		if k.IsEmpty() {
			return false
		}
		k = k.Parent()
	}
}

// Len returns the number of stored (collapsed) cover codes.
func (c *coverSet) Len() int { return len(c.covered) }

// hasExtension reports whether any covered code lies strictly inside the
// region — i.e. descending could still find coverage.
func (c *coverSet) hasExtension(region bitstr.Code) bool {
	for k := range c.covered {
		if region.IsPrefixOf(k) {
			return true
		}
	}
	return false
}

// CoversRect reports whether the covered codes account for every part of
// the region that intersects the query rectangle: no region is missing.
func (c *coverSet) CoversRect(tree *embed.Tree, rect schema.Rect, region bitstr.Code) bool {
	var first [1]bitstr.Code // keeps the one-region answer off the heap
	return len(c.missing(first[:0], 1, tree, rect, region)) == 0
}

// MissingRegions collects up to limit uncovered rect-intersecting
// regions at or under the given region: what a retransmission re-asks,
// and the diagnostics of an incomplete query.
func (c *coverSet) MissingRegions(tree *embed.Tree, rect schema.Rect, region bitstr.Code, limit int) []bitstr.Code {
	return c.missing(nil, limit, tree, rect, region)
}

// missing is the one coverage walk: it appends to out, up to limit, the
// regions that descending the cut tree from region finds uncovered.
// Sub-queries are only issued for rect-intersecting regions (§3.6), so a
// region disjoint from the rect is complete by vacuity and the walk
// skips it; every other branch ends at a covered code, or at a region no
// covered code lies inside, which is missing whole. rect must lie inside
// the tree's bounds (embed.Clamp): an edge beyond a bound would intersect
// nothing, while the pieces sent for it treat it as the topmost
// coordinate.
func (c *coverSet) missing(out []bitstr.Code, limit int, tree *embed.Tree, rect schema.Rect, region bitstr.Code) []bitstr.Code {
	var buf embed.Scratch
	cur := tree.At(&buf, region)
	return c.missingUnder(out, limit, &cur, rect)
}

func (c *coverSet) missingUnder(out []bitstr.Code, limit int, cur *embed.Cursor, rect schema.Rect) []bitstr.Code {
	region := cur.Code()
	if len(out) >= limit || c.Covers(region) {
		return out
	}
	if region.Len() >= bitstr.MaxLen || !c.hasExtension(region) {
		return append(out, region)
	}
	cut := cur.Cut()
	for bit := 0; bit <= 1; bit++ {
		if bit == 1 && !cut.Right {
			break // the right half of a pinned cut is empty
		}
		undo := cur.Descend(cut, bit)
		if rect.Intersects(cur.Rect()) {
			out = c.missingUnder(out, limit, cur, rect)
		}
		cur.Ascend(undo)
	}
	return out
}
