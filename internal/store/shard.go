package store

import (
	"sync"
	"sync/atomic"

	"mind/internal/schema"
	"mind/internal/summary"
)

// tailRows is a fixed constant, NOT a hardware probe or knob: simnet
// experiments require identical behavior for a seed on every machine,
// and the carry schedule shapes result ordering and merge timing. It is
// the insert buffer every read scans linearly: large enough that a
// carry's handful of allocations amortises to nothing per record, small
// enough (10 KB of 40 B rows, half full on average) that the scan costs
// about what one level's descent does.
const tailRows = 256

// Options tunes the Sharded engine.
type Options struct {
	// Rollup, when non-nil, gives the engine its own aggregate summary
	// (DESIGN.md §4i) built with these options: Insert feeds it the row
	// it just published, every carry folds it, and Rollup reads it — the
	// ladder and its rollup hold the same records by construction. Nil
	// (replica stores) keeps no rollup.
	Rollup *summary.Options
	// Append makes the ladder a log: a full tail is sealed as it is —
	// its own arena, unindexed — and appended as a level, so no record
	// is ever copied or partitioned again and reads scan the sealed
	// levels whole. It suits a store written far more than read: a
	// replica store (DESIGN.md §4h, "Replicas append"). Compact still
	// merges everything into one indexed level.
	Append bool
}

// tail is the ladder's insert buffer: one fixed-capacity arena of
// unsorted rows, append-only. The writer copies a row in and then
// publishes it by storing the new length; readers scan the published
// prefix. A row, once published, is never rewritten — the carry that
// retires a tail copies out of it — so views into a tail obey Static's
// view contract.
type tail struct {
	rows []uint64     // stride arity; len is the fixed capacity
	n    atomic.Int64 // published rows
}

// published returns the rows readers may see; a nil tail has none.
func (t *tail) published(arity int) []uint64 {
	if t == nil {
		return nil
	}
	return t.rows[:int(t.n.Load())*arity]
}

// ladderSnap is the ladder's published state: its immutable levels,
// oldest first — in a merging ladder also largest first with strictly
// decreasing lengths, in an appending one each a sealed tail — and the
// tail absorbing inserts (nil until the first insert and after
// Compact). Readers load the pointer once and resolve against all of
// it; a carry publishes a replacement snap without mutating any old
// part, so in-flight readers finish on a consistent view.
type ladderSnap struct {
	levels []*Static
	tail   *tail
}

// Sharded is the store engine of one index version: one
// logarithmic-method ladder (DESIGN.md §4h). Inserts copy their row into
// the tail, and a full tail is carried — binary-counter style — together
// with every level no larger than the run being formed into ONE new
// Static arena, built by appending the source arenas and partitioning in
// place. A record is therefore rebuilt O(log(n/tailRows)) times over its
// life, no insert ever pays for more than the levels it absorbs, and
// there is one index structure at every size. An appending ladder
// (Options.Append) seals a full tail as an unindexed level instead and
// never carries: its records are written once and read by whole scans,
// and the carry bounds above hold for merging ladders only. The name
// (and NewSharded, Options) outlived the hash sharding it once described
// because benchmark/isolation.go compiles against it.
//
// Concurrency: inserts serialize on the writer mutex. Readers (Query,
// Count, All, Len) are lock-free: they load the published snapshot and
// resolve against its immutable levels plus the tail's published prefix,
// so a record is seen at most once. A concurrent insert may or may not
// be visible, an acknowledged one always is.
type Sharded struct {
	bounds []uint64
	dims   int
	arity  int
	time   int // the schema's TimeDim: every level's cut schedule (schema.CutDim)
	// tailCap is the tail capacity in rows: tailRows, except that tests
	// shrink it before the first insert so carries fire every few records.
	tailCap int
	append  bool // Options.Append: seal full tails, never carry

	mu          sync.Mutex
	snap        atomic.Pointer[ladderSnap]
	roll        *summary.Summary // nil without Options.Rollup; fed and folded under mu
	carries     atomic.Uint64    // lifetime carries
	carriedRows atomic.Uint64    // Σ rows written into a new level
}

// NewSharded creates an empty engine. It holds no arena until the first
// insert: an empty store is a few words.
func NewSharded(sch *schema.Schema, opts Options) *Sharded {
	e := &Sharded{
		bounds:  sch.Bounds(),
		dims:    sch.Dims(),
		arity:   sch.Arity(),
		time:    sch.TimeDim(),
		tailCap: tailRows,
		append:  opts.Append,
	}
	e.snap.Store(&ladderSnap{})
	if opts.Rollup != nil {
		e.roll = summary.New(sch, *opts.Rollup)
	}
	return e
}

// Rollup returns the engine's summary, or nil when the engine was built
// without Options.Rollup. It summarizes exactly the records VisitBatches
// streams, so the aggregate path pairs the two.
func (e *Sharded) Rollup() *summary.Summary { return e.roll }

// newTail allocates an empty tail arena.
func (e *Sharded) newTail() *tail {
	return &tail{rows: make([]uint64, e.tailCap*e.arity)}
}

// Insert copies the record into the tail and carries the tail into the
// ladder when that fills it. Between carries the store itself performs
// zero heap allocations (row copy + atomic length store); the caller
// keeps ownership of rec. The rollup, if any, is handed the published
// tail row — immutable from here on — so its delta is views of the tail,
// not a second copy.
func (e *Sharded) Insert(rec schema.Record) {
	e.mu.Lock()
	snap := e.snap.Load()
	if snap.tail == nil {
		snap = &ladderSnap{levels: snap.levels, tail: e.newTail()}
		e.snap.Store(snap)
	}
	t := snap.tail
	n := int(t.n.Load())
	row := t.rows[n*e.arity : (n+1)*e.arity : (n+1)*e.arity]
	copy(row, rec)
	t.n.Store(int64(n + 1))
	if e.roll != nil {
		e.roll.Insert(row)
	}
	switch {
	case n+1 < e.tailCap:
	case e.append:
		e.sealLocked(snap)
	default:
		e.carryLocked(snap, false)
	}
	e.mu.Unlock()
}

// carryLocked retires the tail into the ladder and publishes the result
// with a fresh tail. The run being formed starts as the tail and
// absorbs, newest first, every level no longer than itself (all of them
// when everything is set) — the binary-counter carry, which keeps level
// lengths strictly decreasing. The new level's arena is the absorbed
// arenas and the tail appended oldest first, then partitioned in place,
// and the rollup folds last, so its delta never outlives the tail it
// views. Caller holds e.mu. The old snapshot's parts are never mutated:
// in-flight readers drain on them and the GC reclaims them after.
func (e *Sharded) carryLocked(snap *ladderSnap, everything bool) {
	tailRun := snap.tail.published(e.arity)
	run, keep := len(tailRun), len(snap.levels)
	for keep > 0 && (everything || len(snap.levels[keep-1].rows) <= run) {
		keep--
		run += len(snap.levels[keep].rows)
	}
	rows := make([]uint64, 0, run)
	for _, l := range snap.levels[keep:] {
		rows = append(rows, l.rows...)
	}
	rows = append(rows, tailRun...)
	next := &ladderSnap{levels: make([]*Static, keep+1)}
	copy(next.levels, snap.levels[:keep])
	next.levels[keep] = buildStatic(e.bounds, e.dims, e.arity, e.time, rows)
	if !everything {
		next.tail = e.newTail()
	}
	e.snap.Store(next)
	e.carries.Add(1)
	e.carriedRows.Add(uint64(run / e.arity))
	if e.roll != nil {
		e.roll.Fold()
	}
}

// sealLocked appends the full tail to the levels as an unindexed level
// over the tail's own arena — no copy, no build — and publishes the
// result with a fresh tail. The level list grows in place: a published
// snapshot never reads past its own length, and only the writer appends.
// Caller holds e.mu.
func (e *Sharded) sealLocked(snap *ladderSnap) {
	sealed := &Static{bounds: e.bounds, dims: e.dims, arity: e.arity, time: e.time, rows: snap.tail.rows}
	e.snap.Store(&ladderSnap{levels: append(snap.levels, sealed), tail: e.newTail()})
}

// Compact carries the tail and every level into one level, leaving no
// tail. Used after bulk loads (and by tests) to pin the engine in its
// steady-state layout.
func (e *Sharded) Compact() {
	e.mu.Lock()
	snap := e.snap.Load()
	if len(snap.levels) > 1 || len(snap.tail.published(e.arity)) > 0 {
		e.carryLocked(snap, true)
	}
	e.mu.Unlock()
}

// VisitBatches calls fn with every record inside rect, a batch at a
// time (Static.VisitBatches' contract): the levels, oldest first, then
// the tail in leaf-sized runs, on one published snapshot and one opened
// window. The aggregate path pairs it with Rollup, folding the rollup's
// boundary cells through it batch by batch (summary.Fold.AddBatch)
// without materializing a record slice.
func (e *Sharded) VisitBatches(rect schema.Rect, fn func(rows []uint64, sel []int32)) {
	var buf windowBuf
	w, ok := openWindow(e.bounds, rect, &buf)
	if !ok {
		return
	}
	sel := selPool.Get().(*selection)
	snap := e.snap.Load()
	for _, l := range snap.levels {
		l.visit(&w, sel, fn)
	}
	scanBatches(snap.tail.published(e.arity), e.arity, w.con, sel, fn)
	selPool.Put(sel)
}

// Visit calls fn with every record inside rect. The records are
// read-only views (Static's view contract).
func (e *Sharded) Visit(rect schema.Rect, fn func(schema.Record)) {
	e.VisitBatches(rect, recordsOf(e.arity, fn))
}

// Query resolves an orthogonal range query.
func (e *Sharded) Query(rect schema.Rect) []schema.Record {
	return e.QueryAppend(rect, nil)
}

// QueryAppend resolves rect and appends matches to out, returning the
// extended slice; out grows at most once per batch.
func (e *Sharded) QueryAppend(rect schema.Rect, out []schema.Record) []schema.Record {
	e.VisitBatches(rect, func(rows []uint64, sel []int32) { out = appendRecords(out, rows, sel, e.arity) })
	return out
}

// Count returns the number of records inside rect without materializing
// them.
func (e *Sharded) Count(rect schema.Rect) int {
	n := 0
	e.VisitBatches(rect, func(_ []uint64, sel []int32) { n += len(sel) })
	return n
}

// LadderShape is the ladder as an operator sees it. CarriedRows ÷
// records inserted is the write amplification.
type LadderShape struct {
	Levels      []int  `json:"levels"` // level lengths, oldest first
	TailRecords int    `json:"tail_records"`
	Carries     uint64 `json:"carries"`
	CarriedRows uint64 `json:"carried_rows"`
}

// Shape snapshots the ladder (ops surface, tests).
func (e *Sharded) Shape() LadderShape {
	snap := e.snap.Load()
	levels := make([]int, len(snap.levels))
	for k, l := range snap.levels {
		levels[k] = l.Len()
	}
	return LadderShape{
		Levels:      levels,
		TailRecords: len(snap.tail.published(e.arity)) / e.arity,
		Carries:     e.carries.Load(),
		CarriedRows: e.carriedRows.Load(),
	}
}

// count returns the records held in levels and in the tail.
func (e *Sharded) count() (levels, inTail int) {
	snap := e.snap.Load()
	for _, l := range snap.levels {
		levels += l.Len()
	}
	return levels, len(snap.tail.published(e.arity)) / e.arity
}

// Len returns the number of stored records.
func (e *Sharded) Len() int {
	levels, inTail := e.count()
	return levels + inTail
}

// All streams every stored record; stops early if yield returns false.
// The levels stream oldest first, then the tail in insertion order — a
// deterministic order for a deterministic op history, which the simnet
// reproducibility contract requires of the replication and rebalance
// hand-off paths built on All.
func (e *Sharded) All(yield func(rec schema.Record) bool) {
	snap := e.snap.Load()
	for _, l := range snap.levels {
		if !eachRow(l.rows, e.arity, yield) {
			return
		}
	}
	eachRow(snap.tail.published(e.arity), e.arity, yield)
}

// StaticFrac reports the fraction of records currently resident in the
// ladder's levels (diagnostics: 1.0 right after Compact, dipping as
// the tail fills).
func (e *Sharded) StaticFrac() float64 {
	levels, inTail := e.count()
	if levels+inTail == 0 {
		return 1
	}
	return float64(levels) / float64(levels+inTail)
}
