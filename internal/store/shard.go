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
// about what one level's descent does. Tails stay 64-bit whatever their
// values: the insert path and the rollup's row views never change width.
const tailRows = 256

// Options tunes the Sharded engine.
type Options struct {
	// Rollup, when non-nil, gives the engine its own aggregate summary
	// (DESIGN.md §4i) built with these options: Insert feeds it the row
	// it just published, every carry folds it into the rollup's arena in
	// place, under the rollup's own write lock, which an aggregate holds
	// for reading only over its cover walk, and Rollup reads it — the
	// ladder and its rollup hold the same records by construction. Nil
	// (replica stores) keeps no rollup.
	Rollup *summary.Options
	// Append makes the ladder a log: a full tail is sealed — packed by
	// column into one immutable block with a box (block.go) — and
	// appended to the ladder's blocks, so no record is ever partitioned
	// or merged again, and a read skips or decodes each sealed block by
	// its box. It suits a store written far more than read: a replica
	// store (DESIGN.md §4h, "Replicas append"). Compact still merges
	// everything into one indexed level.
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
	// high is the OR of every inserted value's high half: nonzero once
	// some value needs 64 bits. Only the writer reads or writes it.
	high uint64
}

// narrow reports whether every row the tail holds fits 32-bit words; a
// nil tail holds none.
func (t *tail) narrow() bool { return t == nil || t.high == 0 }

// published returns the rows readers may see; a nil tail has none.
func (t *tail) published(arity int) []uint64 {
	if t == nil {
		return nil
	}
	return t.rows[:int(t.n.Load())*arity]
}

// ladderSnap is the ladder's published state: its immutable indexed
// levels, oldest first — in a merging ladder largest first with
// strictly decreasing lengths, in an appending one none, or the one a
// Compact built — then the blocks an appending ladder sealed since,
// oldest first, and the tail absorbing inserts (nil until the first
// insert and after Compact). Readers load the pointer once and resolve
// against all of it in that order; a carry publishes a replacement snap
// without mutating any old part, so in-flight readers finish on a
// consistent view.
type ladderSnap struct {
	levels []*Static
	blocks []block
	tail   *tail
}

// Sharded is the store engine of one index version: one
// logarithmic-method ladder (DESIGN.md §4h). Inserts copy their row into
// the tail, and a full tail is carried — binary-counter style — together
// with every level no larger than the run being formed into ONE new
// Static, built by decoding the source levels leaf by leaf into one
// arena, partitioning it in place and packing its leaves. A record is
// therefore rebuilt O(log(n/tailRows)) times over its
// life, no insert ever pays for more than the levels it absorbs, and
// there is one index structure at every size. An appending ladder
// (Options.Append) seals a full tail into a packed block instead and
// never carries: its records are packed once and read block by block,
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
	geom // shared by every level: the schema's bounds, dims, arity and cut schedule
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
		geom:    newGeom(sch),
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
		snap = &ladderSnap{levels: snap.levels, blocks: snap.blocks, tail: e.newTail()}
		e.snap.Store(snap)
	}
	t := snap.tail
	n := int(t.n.Load())
	row := t.rows[n*e.arity : (n+1)*e.arity : (n+1)*e.arity]
	copy(row, rec)
	t.high |= highBits(row)
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
// lengths strictly decreasing. Blocks, which only an appending ladder
// holds and only its Compact carries, are absorbed whole. The absorbed
// levels, decoded leaf by leaf, and the tail are gathered oldest first
// into one unpacked arena, which is partitioned in place and packed leaf
// by leaf into the new level and then dropped; the level is narrow iff
// the tail and every absorbed level are, so a wide value widens only the
// levels that come to hold it. The rollup folds last, so its delta
// never outlives the tail it views. Caller holds e.mu. The old snapshot's parts are never
// mutated: in-flight readers drain on them and the GC reclaims them
// after.
func (e *Sharded) carryLocked(snap *ladderSnap, everything bool) {
	tailRun := snap.tail.published(e.arity)
	run, keep, narrow := len(tailRun)/e.arity, len(snap.levels), snap.tail.narrow()
	for i := range snap.blocks {
		run += snap.blocks[i].n
		narrow = narrow && !snap.blocks[i].isWide()
	}
	for keep > 0 && (everything || snap.levels[keep-1].Len() <= run) {
		keep--
		run += snap.levels[keep].Len()
		narrow = narrow && !snap.levels[keep].isWide()
	}
	next := &ladderSnap{levels: make([]*Static, keep+1)}
	copy(next.levels, snap.levels[:keep])
	if narrow {
		next.levels[keep] = newLevel(&e.geom, gather[uint32](snap.levels[keep:], snap.blocks, tailRun, run*e.arity))
	} else {
		next.levels[keep] = newLevel(&e.geom, gather[uint64](snap.levels[keep:], snap.blocks, tailRun, run*e.arity))
	}
	if !everything {
		next.tail = e.newTail()
	}
	e.snap.Store(next)
	e.carries.Add(1)
	e.carriedRows.Add(uint64(run))
	if e.roll != nil {
		e.roll.Fold()
	}
}

// gather decodes the levels' rows, oldest first and each leaf by leaf,
// then the blocks', and appends tailRun, into one fresh arena of words W
// holding exactly words of them.
func gather[W word](levels []*Static, blocks []block, tailRun []uint64, words int) []W {
	rows := make([]W, 0, words)
	for _, l := range levels {
		rows = appendLevel(rows, l)
	}
	for i := range blocks {
		rows = appendBlock(rows, &blocks[i])
	}
	return appendWords(rows, tailRun)
}

// sealLocked packs the full tail into a block, appends it to the blocks
// and publishes the result with a fresh tail: one pass over the tail's
// rows to frame each column and one to pack it, no build. The retired
// tail is left to the readers still holding its rows. The block list
// grows in place: a published snapshot never reads past its own length,
// and only the writer appends. Caller holds e.mu.
func (e *Sharded) sealLocked(snap *ladderSnap) {
	blocks := append(snap.blocks, pack(&e.geom, snap.tail.published(e.arity)))
	e.snap.Store(&ladderSnap{levels: snap.levels, blocks: blocks, tail: e.newTail()})
}

// Compact carries the tail and every level into one level, leaving no
// tail. Used after bulk loads (and by tests) to pin the engine in its
// steady-state layout.
func (e *Sharded) Compact() {
	e.mu.Lock()
	snap := e.snap.Load()
	if len(snap.levels)+len(snap.blocks) > 1 || len(snap.tail.published(e.arity)) > 0 {
		e.carryLocked(snap, true)
	}
	e.mu.Unlock()
}

// VisitBatches calls fn with every record inside rect, a batch at a
// time: the levels, oldest first, each in partition order, then the
// blocks, then the tail in leaf-sized runs, on one published snapshot
// and one opened window. A batch is a view of one leaf's rows, 64-bit
// words of stride arity, and their selection, the ascending word offsets
// of the records inside rect among them: record j is
// rows[sel[j] : sel[j]+arity] of Batch.Rows. It is THE traversal —
// Visit, Query, QueryAppend and Count are wrappers — and allocates
// nothing: the view, the selection and the rows are the visit's scratch,
// recycled, so fn must not retain any of them (Static's view contract). The aggregate path pairs it with Rollup, folding the
// rollup's boundary cells through it batch by batch
// (summary.Fold.AddBatch) without materializing a record slice.
func (e *Sharded) VisitBatches(rect schema.Rect, fn func(*schema.Batch)) {
	var buf windowBuf
	if w, ok := openWindow(e.bounds, rect, &buf); ok {
		sc := scratchPool.Get().(*scratch)
		e.visit(&w, sc, fn)
		scratchPool.Put(sc)
	}
}

// visit is VisitBatches on an opened window and a scratch; a nil fn
// counts the matches into sc.count (visitPacked).
func (e *Sharded) visit(w *window, sc *scratch, fn func(*schema.Batch)) {
	snap := e.snap.Load()
	for _, l := range snap.levels {
		l.visit(w, sc, fn)
	}
	for i := range snap.blocks {
		snap.blocks[i].visit(w, sc, fn)
	}
	if fn == nil {
		fn = func(b *schema.Batch) { sc.count += b.Len() }
	}
	scanBatches(snap.tail.published(e.arity), e.arity, w.con, sc, fn)
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
// extended slice; out grows at most once per batch, and each batch's
// selected rows are copied once (Static's view contract).
func (e *Sharded) QueryAppend(rect schema.Rect, out []schema.Record) []schema.Record {
	e.VisitBatches(rect, func(b *schema.Batch) {
		rows, sel := b.Rows()
		out = appendRecords(out, rows, sel, e.arity)
	})
	return out
}

// Count returns the number of records inside rect without materializing
// them: a leaf or block inside the window counts undecoded, a straddled
// one by its constrained columns alone.
func (e *Sharded) Count(rect schema.Rect) int {
	var buf windowBuf
	w, ok := openWindow(e.bounds, rect, &buf)
	if !ok {
		return 0
	}
	sc := scratchPool.Get().(*scratch)
	sc.count = 0
	e.visit(&w, sc, nil)
	n := sc.count
	scratchPool.Put(sc)
	return n
}

// LadderShape is the ladder as an operator sees it. CarriedRows ÷
// records inserted is the write amplification; Bytes ÷ records is the
// footprint: the bits each column's range needs within a packed run —
// a 32-row leaf of a merging ladder's level, a 256-row block of an
// appending one — plus the runs' frames (≈ 12–13 B per Index-2 record
// in either); a level that WideLevels counts, holding a value ≥ 2³²,
// keeps its cuts and frames in 64-bit words.
type LadderShape struct {
	Levels      []int  `json:"levels"` // level lengths, then block lengths, oldest first
	TailRecords int    `json:"tail_records"`
	Carries     uint64 `json:"carries"`
	CarriedRows uint64 `json:"carried_rows"`
	Bytes       int    `json:"bytes"`       // every level's cuts and packed leaves or packed block, plus the tail arena
	WideLevels  int    `json:"wide_levels"` // levels holding a value ≥ 2³²
}

// Shape snapshots the ladder (ops surface, tests).
func (e *Sharded) Shape() LadderShape {
	snap := e.snap.Load()
	shape := LadderShape{
		Levels:      make([]int, 0, len(snap.levels)+len(snap.blocks)),
		TailRecords: len(snap.tail.published(e.arity)) / e.arity,
		Carries:     e.carries.Load(),
		CarriedRows: e.carriedRows.Load(),
	}
	for _, l := range snap.levels {
		shape.Levels = append(shape.Levels, l.Len())
		shape.Bytes += l.bytes()
		if l.isWide() {
			shape.WideLevels++
		}
	}
	for i := range snap.blocks {
		b := &snap.blocks[i]
		shape.Levels = append(shape.Levels, b.n)
		shape.Bytes += b.bytes()
		if b.isWide() {
			shape.WideLevels++
		}
	}
	if snap.tail != nil {
		shape.Bytes += 8 * len(snap.tail.rows)
	}
	return shape
}

// Len returns the number of stored records.
func (e *Sharded) Len() int {
	snap := e.snap.Load()
	n := len(snap.tail.published(e.arity)) / e.arity
	for _, l := range snap.levels {
		n += l.Len()
	}
	for i := range snap.blocks {
		n += snap.blocks[i].n
	}
	return n
}

// All streams every stored record; stops early if yield returns false.
// The levels stream oldest first, then the blocks, then the tail in
// insertion order — a deterministic order for a deterministic op
// history, which the simnet reproducibility contract requires of the
// replication and rebalance hand-off paths built on All.
func (e *Sharded) All(yield func(rec schema.Record) bool) {
	snap := e.snap.Load()
	for _, l := range snap.levels {
		if !l.each(yield) {
			return
		}
	}
	for i := range snap.blocks {
		if !snap.blocks[i].each(yield) {
			return
		}
	}
	eachRow(snap.tail.published(e.arity), e.arity, yield)
}
