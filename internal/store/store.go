// Package store implements the local storage engine of a MIND node. The
// paper's prototype delegated per-node storage to MySQL via JDBC (§3.9),
// funnelling all database access through a single DAC queue; this
// implementation provides the same contract — insert multi-attribute
// records, resolve orthogonal range queries — fully in memory and
// concurrent.
//
// The engine is one structure at every size (DESIGN.md §4h):
//
//   - Static (static.go) is a bulk-built, immutable k-d index over one
//     pointer-free arena of full records in partition order, bucketed
//     into leaves of at most leafRows rows: no per-node pointers, no
//     per-query allocations, one iterative traversal (VisitBatches) that
//     every read is a wrapper over. Its cuts follow one schedule,
//     schema.CutDim: the time attribute on two levels of every three,
//     because the queries a monitor asks are windows in time.
//   - Sharded (shard.go) is the engine: one logarithmic-method ladder
//     of Static arenas behind a small unsorted tail arena that absorbs
//     inserts and is carried into the ladder when it fills. An engine
//     built with Options.Rollup also owns the aggregate summary of its
//     records (internal/summary, DESIGN.md §4i): it feeds it on insert
//     and folds it on carry, so nothing outside this package knows how
//     a version's records are laid out.
//   - Versioned (versioned.go) keeps one Sharded engine per index
//     version (§3.7).
//
// Every read hands its matches over a batch at a time: one leaf's row
// slice (a tail is cut into leaf-sized runs) plus a selection, the
// ascending word offsets of the rows inside the query window.
// selectRows picks them without a data-dependent branch, one column at
// a time — the first constrained column over every row, each later one
// over the rows that survived — so a leaf that straddles a window edge
// costs the same whatever its rows hold, and a consumer such as the
// aggregate fold (summary.Fold.AddBatch) takes a whole leaf per call
// instead of one call per record. Visit, Query, QueryAppend and Count
// adapt the batches back to records.
//
// A Store holds the records of one index (or one daily version of one
// index) at one node. Scan, the differential-test oracle, keeps the old
// single-threaded contract and must be serialized by its caller.
package store

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"mind/internal/schema"
)

// Store is the contract the MIND node requires of its storage engine.
type Store interface {
	// Insert adds one record. The record's indexed attributes position it
	// in the data space; payload attributes ride along. The caller must
	// not mutate the record after handing it over.
	Insert(rec schema.Record)
	// Query returns all records whose indexed point (clamped to the
	// schema bounds) falls inside rect. The records are read-only and
	// may be views of an engine arena (Static's view contract).
	Query(rect schema.Rect) []schema.Record
	// Count returns the number of records inside rect without
	// materializing them.
	Count(rect schema.Rect) int
	// Len returns the number of stored records.
	Len() int
	// All streams every stored record; used for replication hand-off.
	All(yield func(rec schema.Record) bool)
}

// rectContains reports whether the record's indexed point — clamped
// per-dimension to bounds, the schema's precomputed sch.Bounds() — lies
// inside rect. This is the DEFINITION of membership, and only the Scan
// oracle evaluates it record by record; the indexed engines test raw
// values against the unclamped rectangle instead (unclamp, window), and
// FuzzStoreOracle holds the two to the same answers.
func rectContains(bounds []uint64, rect schema.Rect, rec schema.Record) bool {
	for i, b := range bounds {
		v := rec[i]
		if v > b {
			v = b
		}
		if v < rect.Lo[i] || v > rect.Hi[i] {
			return false
		}
	}
	return true
}

// maxStackDims is the dimensionality up to which a traversal keeps its
// unclamped upper bounds in a stack buffer (more dims allocate once per
// traversal, nothing else changes).
const maxStackDims = 8

// unclamp moves the schema clamp from every stored point to the query
// rectangle, once per traversal. For a bound b and a raw value v,
// min(v, b) ∈ [lo, hi] ⇔ v ∈ [lo, hi'] where hi' = MaxUint64 if hi >= b
// and hi otherwise, provided lo <= b; when lo > b nothing matches
// (ok = false). Proof: if hi >= b the upper test always passes for a
// clamped value, and v >= lo ⇔ min(v, b) >= lo because lo <= b; if
// hi < b then v <= hi ⇔ min(v, b) <= hi because a value above b fails
// both sides. The same two equivalences cover the split-plane prunes
// (lo <= coord, hi >= coord), so a tree built on clamped medians is
// traversed on raw rows. The lower bounds are rect.Lo unchanged; the
// upper bounds are appended to buf.
func unclamp(bounds []uint64, rect schema.Rect, buf []uint64) (hi []uint64, ok bool) {
	for d, b := range bounds {
		if rect.Lo[d] > b {
			return nil, false
		}
		h := rect.Hi[d]
		if h >= b {
			h = math.MaxUint64
		}
		buf = append(buf, h)
	}
	return buf, true
}

// bound is one dimension a window actually constrains: a raw value v is
// inside iff v-lo <= span in wrapping arithmetic (one compare — a value
// below lo wraps far above any span).
type bound struct {
	dim      int
	lo, span uint64
}

// window is a query rectangle opened for raw rows, once per traversal:
// the unclamped bounds [lo, hi] the descent prunes on, and con, the
// dimensions they constrain at all — a row scan tests only those, so a
// time-window query over an unconstrained prefix space compares one
// column per row, not three.
type window struct {
	lo, hi []uint64
	con    []bound
}

// windowBuf is the stack scratch a traversal opens its window into
// (more than maxStackDims dims allocate once per traversal).
type windowBuf struct {
	hi  [maxStackDims]uint64
	con [maxStackDims]bound
}

// openWindow prepares rect for raw rows; false means nothing can match:
// unclamp says so, or the rectangle is inverted on some dimension.
func openWindow(bounds []uint64, rect schema.Rect, buf *windowBuf) (w window, ok bool) {
	w.lo = rect.Lo
	if w.hi, ok = unclamp(bounds, rect, buf.hi[:0]); !ok {
		return w, false
	}
	w.con = buf.con[:0]
	for d, h := range w.hi {
		l := w.lo[d]
		if l > h {
			return w, false
		}
		if l > 0 || h < math.MaxUint64 {
			w.con = append(w.con, bound{d, l, h - l})
		}
	}
	return w, true
}

// selection is the scratch a visit selects one leaf's rows into.
type selection [leafRows]int32

// selPool recycles selections between visits. A batch callback keeps
// nothing it is handed, but the compiler cannot see that through a func
// value, so a selection on the visit's stack would move to the heap on
// every visit.
var selPool = sync.Pool{New: func() any { return new(selection) }}

// selectRows returns, in a prefix of sel, the ascending word offsets into
// rows (stride arity, at most leafRows rows) of the rows that satisfy
// every bound. It takes no data-dependent branch: every candidate's
// offset is written and the write position advances by the 0 or 1 its
// test computes (sel[k] = b; k += in). The first bound is tested over every
// row and each later bound only over the rows that survived, so a
// selective first column (a destination prefix) leaves little for the
// others to test, as the early exit of a row-at-a-time scan did. With no
// bound at all every row is selected.
func selectRows(rows []uint64, arity int, con []bound, sel *selection) []int32 {
	k := 0
	if len(con) == 0 {
		for b := 0; b < len(rows); b += arity {
			sel[k] = int32(b)
			k++
		}
		return sel[:k]
	}
	c := con[0]
	for b := 0; b < len(rows); b += arity {
		sel[k] = int32(b)
		k += inside(rows[b+c.dim], c)
	}
	for _, c := range con[1:] {
		n := 0
		for _, b := range sel[:k] {
			sel[n] = b
			n += inside(rows[int(b)+c.dim], c)
		}
		k = n
	}
	return sel[:k]
}

// inside is 1 if v lies inside c and 0 otherwise: v-lo <= span is the
// absence of a borrow from span - (v-lo), which compiles to a subtract
// with borrow instead of a branch.
func inside(v uint64, c bound) int {
	_, out := bits.Sub64(c.span, v-c.lo, 0)
	return int(out ^ 1)
}

// scanBatches hands fn, one leaf-sized run at a time, the rows of rows
// (stride arity) that satisfy every bound; a run with none is skipped.
// It is the one row scan: a Static leaf is a single run, a tail several.
func scanBatches(rows []uint64, arity int, con []bound, sel *selection, fn func(rows []uint64, sel []int32)) {
	for step := leafRows * arity; len(rows) > 0; {
		run := rows[:min(step, len(rows))]
		rows = rows[len(run):]
		if in := selectRows(run, arity, con, sel); len(in) > 0 {
			fn(run, in)
		}
	}
}

// recordsOf adapts a record callback to batches: fn sees every selected
// row as a capped view.
func recordsOf(arity int, fn func(schema.Record)) func(rows []uint64, sel []int32) {
	return func(rows []uint64, sel []int32) {
		for _, o := range sel {
			b := int(o)
			fn(rows[b : b+arity : b+arity])
		}
	}
}

// appendRecords appends every selected row of a batch to out as a capped
// view, growing out once per batch.
func appendRecords(out []schema.Record, rows []uint64, sel []int32, arity int) []schema.Record {
	out = slices.Grow(out, len(sel))
	for _, o := range sel {
		b := int(o)
		out = append(out, rows[b:b+arity:b+arity])
	}
	return out
}

// eachRow streams rows (stride arity) as capped views until yield
// returns false, and reports whether it ran to the end.
func eachRow(rows []uint64, arity int, yield func(schema.Record) bool) bool {
	for b := 0; b+arity <= len(rows); b += arity {
		if !yield(rows[b : b+arity : b+arity]) {
			return false
		}
	}
	return true
}

// Scan is the naive O(n)-per-query store used as the differential-test
// oracle and the ablation baseline for the indexed engines. Unlike the
// other engines it is not safe for concurrent use.
type Scan struct {
	sch    *schema.Schema
	bounds []uint64
	recs   []schema.Record
}

// NewScan creates an empty scan store.
func NewScan(sch *schema.Schema) *Scan { return &Scan{sch: sch, bounds: sch.Bounds()} }

// Insert appends the record.
func (s *Scan) Insert(rec schema.Record) { s.recs = append(s.recs, rec) }

// Len returns the number of stored records.
func (s *Scan) Len() int { return len(s.recs) }

// Query scans every record.
func (s *Scan) Query(rect schema.Rect) []schema.Record {
	var out []schema.Record
	for _, r := range s.recs {
		if rectContains(s.bounds, rect, r) {
			out = append(out, r)
		}
	}
	return out
}

// Count scans every record without materializing matches.
func (s *Scan) Count(rect schema.Rect) int {
	n := 0
	for _, r := range s.recs {
		if rectContains(s.bounds, rect, r) {
			n++
		}
	}
	return n
}

// All streams every record.
func (s *Scan) All(yield func(rec schema.Record) bool) {
	for _, r := range s.recs {
		if !yield(r) {
			return
		}
	}
}

var (
	_ Store = (*Scan)(nil)
	_ Store = (*Sharded)(nil)
)
