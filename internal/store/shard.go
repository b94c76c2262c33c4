package store

import (
	"sync"
	"sync/atomic"

	"mind/internal/schema"
	"mind/internal/summary"
)

// The engine's sizes are fixed constants, NOT hardware probes or knobs:
// simnet experiments require identical behavior for a seed on every
// machine, and the shard layout and carry schedule shape result
// ordering and merge timing.
//
// defaultShards is 1 because hash routing spreads every region across
// all shards, so a selective range query pays a near-full traversal per
// shard — sharding is a write-scaling trade (per-shard writer mutexes,
// per-(version, shard) query fan-out) that deployments opt into by
// sizing it to the machine via Config.StoreShards (mindnode
// -store-shards defaults to GOMAXPROCS); see BenchmarkStoreLayout for
// the measured cost curve.
//
// tailRows is the insert buffer every read of a shard scans linearly:
// large enough that a carry's handful of allocations amortises to
// nothing per record, small enough (10 KB of 40 B rows, half full on
// average) that the scan costs about what one level's descent does.
const (
	defaultShards = 1
	tailRows      = 256
)

// Options tunes the Sharded engine.
type Options struct {
	// Shards is the number of per-core shards (rounded up to a power of
	// two, capped at 256). Each shard has its own writer mutex and its
	// own ladder, so concurrent writers scale to the shard count and each
	// shard's working set stays cache-sized (the Ma & Cooperman
	// "distribute the index over CPU caches" partitioning). Hash routing
	// cannot prune shards on reads, so every shard pays a traversal per
	// query — leave it at the single-shard default unless writers
	// contend. 0 selects the deterministic default (1).
	Shards int
	// Rollup, when non-nil, gives every shard its own aggregate summary
	// (DESIGN.md §4i) built with these options: Insert feeds it the row
	// it just published, every carry folds it, and Rollup(i) reads it —
	// the shard and its rollup hold the same records by construction.
	// Nil (replica stores) keeps no rollup.
	Rollup *summary.Options
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = defaultShards
	}
	if o.Shards > 256 {
		o.Shards = 256
	}
	n := 1
	for n < o.Shards {
		n <<= 1
	}
	o.Shards = n
	return o
}

// tail is a shard's insert buffer: one fixed-capacity arena of unsorted
// rows, append-only. The writer copies a row in and then publishes it by
// storing the new length; readers scan the published prefix. A row, once
// published, is never rewritten — the carry that retires a tail copies
// out of it — so views into a tail obey Static's view contract.
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

// shardSnap is one shard's published state: the ladder's immutable
// levels, oldest and largest first with strictly decreasing lengths,
// and the tail absorbing inserts (nil until the first insert and after
// Compact). Readers load the pointer once and resolve against all of
// it; a carry publishes a replacement snap without mutating any old
// part, so in-flight readers finish on a consistent view.
type shardSnap struct {
	levels []*Static
	tail   *tail
}

// engineShard is one writer domain. The pad keeps adjacent shards' hot
// fields (mu, snap) on separate cache lines so writer traffic on one
// shard does not false-share with readers of its neighbors.
type engineShard struct {
	mu          sync.Mutex
	snap        atomic.Pointer[shardSnap]
	roll        *summary.Summary // nil without Options.Rollup; fed and folded under mu
	carries     atomic.Uint64    // lifetime carries
	carriedRows atomic.Uint64    // Σ rows written into a new level
	_           [24]byte
}

// Sharded is the store engine, partitioned into per-core shards routed
// by a hash of the record's indexed point (DESIGN.md §4h). Each shard is
// a logarithmic-method ladder: inserts copy their row into the tail, and
// a full tail is carried — binary-counter style — together with every
// level no larger than the run being formed into ONE new Static arena,
// built by appending the source arenas and partitioning in place. A
// record is therefore rebuilt O(log(n/tailRows)) times over its life,
// no insert ever pays for more than the levels it absorbs, and there is
// one index structure at every size.
//
// Concurrency: inserts serialize per shard on the shard writer mutex;
// writers to different shards never touch the same cache lines. Readers
// (Query, Count, All, Len) are lock-free: they load each shard's
// published snapshot and resolve against its immutable levels plus the
// tail's published prefix, so a record is seen at most once. A
// concurrent insert may or may not be visible, an acknowledged one
// always is.
type Sharded struct {
	bounds []uint64
	dims   int
	arity  int
	time   int // the schema's TimeDim: every level's cut schedule (schema.CutDim)
	// tailCap is the tail capacity in rows: tailRows, except that tests
	// shrink it before the first insert so carries fire every few records.
	tailCap int
	mask    uint64
	shards  []engineShard
}

// NewSharded creates an empty engine. It holds no arena until the first
// insert: an empty store is a few words per shard.
func NewSharded(sch *schema.Schema, opts Options) *Sharded {
	opts = opts.withDefaults()
	e := &Sharded{
		bounds:  sch.Bounds(),
		dims:    sch.Dims(),
		arity:   sch.Arity(),
		time:    sch.TimeDim(),
		tailCap: tailRows,
		mask:    uint64(opts.Shards - 1),
		shards:  make([]engineShard, opts.Shards),
	}
	empty := &shardSnap{}
	for i := range e.shards {
		e.shards[i].snap.Store(empty)
		if opts.Rollup != nil {
			e.shards[i].roll = summary.New(sch, *opts.Rollup)
		}
	}
	return e
}

// NumShards returns the shard count.
func (e *Sharded) NumShards() int { return len(e.shards) }

// shardOf routes a record by an FNV-1a hash of its clamped indexed
// point. Pure function of the point, so placement is deterministic for
// a given record and shard count — simnet reproducibility depends on
// this.
func (e *Sharded) shardOf(rec schema.Record) int {
	h := uint64(14695981039346656037)
	for i, b := range e.bounds {
		v := rec[i]
		if v > b {
			v = b
		}
		h ^= v
		h *= 1099511628211
	}
	return int((h ^ h>>32) & e.mask)
}

// Rollup returns shard i's summary, or nil when the engine was built
// without Options.Rollup. It summarizes exactly the records
// VisitShardBatches(i) streams, so the aggregate path pairs the two per
// shard.
func (e *Sharded) Rollup(i int) *summary.Summary { return e.shards[i].roll }

// newTail allocates an empty tail arena.
func (e *Sharded) newTail() *tail {
	return &tail{rows: make([]uint64, e.tailCap*e.arity)}
}

// Insert copies the record into its shard's tail and carries the tail
// into the ladder when that fills it. Between carries the store itself
// performs zero heap allocations (hash + row copy + atomic length store);
// the caller keeps ownership of rec. The shard's rollup, if any, is
// handed the published tail row — immutable from here on — so its delta
// is views of the tail, not a second copy.
func (e *Sharded) Insert(rec schema.Record) {
	i := e.shardOf(rec)
	sh := &e.shards[i]
	sh.mu.Lock()
	snap := sh.snap.Load()
	if snap.tail == nil {
		snap = &shardSnap{levels: snap.levels, tail: e.newTail()}
		sh.snap.Store(snap)
	}
	t := snap.tail
	n := int(t.n.Load())
	row := t.rows[n*e.arity : (n+1)*e.arity : (n+1)*e.arity]
	copy(row, rec)
	t.n.Store(int64(n + 1))
	if sh.roll != nil {
		sh.roll.Insert(row)
	}
	if n+1 == e.tailCap {
		e.carryLocked(sh, snap, false)
	}
	sh.mu.Unlock()
}

// carryLocked retires the shard's tail into the ladder and publishes
// the result with a fresh tail. The run being formed starts as the tail
// and absorbs, newest first, every level no longer than itself (all of
// them when everything is set) — the binary-counter carry, which keeps
// level lengths strictly decreasing. The new level's arena is the
// absorbed arenas and the tail appended oldest first, then partitioned
// in place, and the shard's rollup folds last, so its delta never
// outlives the tail it views. Caller holds sh.mu. The old snapshot's
// parts are never mutated: in-flight readers drain on them and the GC
// reclaims them after.
func (e *Sharded) carryLocked(sh *engineShard, snap *shardSnap, everything bool) {
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
	next := &shardSnap{levels: make([]*Static, keep+1)}
	copy(next.levels, snap.levels[:keep])
	next.levels[keep] = buildStatic(e.bounds, e.dims, e.arity, e.time, rows)
	if !everything {
		next.tail = e.newTail()
	}
	sh.snap.Store(next)
	sh.carries.Add(1)
	sh.carriedRows.Add(uint64(run / e.arity))
	if sh.roll != nil {
		sh.roll.Fold()
	}
}

// Compact carries every shard's tail and levels into one level, leaving
// no tail. Used after bulk loads (and by tests) to pin the engine in its
// steady-state layout.
func (e *Sharded) Compact() {
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		snap := sh.snap.Load()
		if len(snap.levels) > 1 || len(snap.tail.published(e.arity)) > 0 {
			e.carryLocked(sh, snap, true)
		}
		sh.mu.Unlock()
	}
}

// VisitShardBatches calls fn with every record of shard i inside rect,
// a batch at a time (Static.VisitBatches' contract): the shard's levels,
// oldest first, then its tail in leaf-sized runs, on one published
// snapshot and one opened window. The aggregate path pairs it with
// Rollup(i), folding each shard's boundary cells through it batch by
// batch (summary.Fold.AddBatch) without materializing a record slice.
func (e *Sharded) VisitShardBatches(i int, rect schema.Rect, fn func(rows []uint64, sel []int32)) {
	e.visitBatches(i, i+1, rect, fn)
}

// VisitBatches calls fn with every record inside rect, a batch at a
// time, shard by shard.
func (e *Sharded) VisitBatches(rect schema.Rect, fn func(rows []uint64, sel []int32)) {
	e.visitBatches(0, len(e.shards), rect, fn)
}

// visitBatches visits shards [from, to) on one opened window and one
// selection.
func (e *Sharded) visitBatches(from, to int, rect schema.Rect, fn func(rows []uint64, sel []int32)) {
	var buf windowBuf
	w, ok := openWindow(e.bounds, rect, &buf)
	if !ok {
		return
	}
	sel := selPool.Get().(*selection)
	for i := from; i < to; i++ {
		snap := e.shards[i].snap.Load()
		for _, l := range snap.levels {
			l.visit(&w, sel, fn)
		}
		scanBatches(snap.tail.published(e.arity), e.arity, w.con, sel, fn)
	}
	selPool.Put(sel)
}

// Visit calls fn with every record inside rect, shard by shard. The
// records are read-only views (Static's view contract).
func (e *Sharded) Visit(rect schema.Rect, fn func(schema.Record)) {
	e.VisitBatches(rect, recordsOf(e.arity, fn))
}

// Query resolves an orthogonal range query across all shards.
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

// ShardShape is one shard's ladder as an operator sees it.
// CarriedRows ÷ records inserted is the shard's write amplification.
type ShardShape struct {
	Levels      []int  `json:"levels"` // level lengths, oldest first
	TailRecords int    `json:"tail_records"`
	Carries     uint64 `json:"carries"`
	CarriedRows uint64 `json:"carried_rows"`
}

// Shape snapshots every shard's ladder (ops surface, tests).
func (e *Sharded) Shape() []ShardShape {
	out := make([]ShardShape, len(e.shards))
	for i := range e.shards {
		sh := &e.shards[i]
		snap := sh.snap.Load()
		levels := make([]int, len(snap.levels))
		for k, l := range snap.levels {
			levels[k] = l.Len()
		}
		out[i] = ShardShape{
			Levels:      levels,
			TailRecords: len(snap.tail.published(e.arity)) / e.arity,
			Carries:     sh.carries.Load(),
			CarriedRows: sh.carriedRows.Load(),
		}
	}
	return out
}

// count returns the records held in levels and in tails.
func (e *Sharded) count() (levels, tails int) {
	for i := range e.shards {
		snap := e.shards[i].snap.Load()
		for _, l := range snap.levels {
			levels += l.Len()
		}
		tails += len(snap.tail.published(e.arity)) / e.arity
	}
	return levels, tails
}

// Len returns the number of stored records.
func (e *Sharded) Len() int {
	levels, tails := e.count()
	return levels + tails
}

// All streams every stored record; stops early if yield returns false.
// Shards stream in order, each shard's levels oldest first and then its
// tail in insertion order — a deterministic order for a deterministic op
// history, which the simnet reproducibility contract requires of the
// replication and rebalance hand-off paths built on All.
func (e *Sharded) All(yield func(rec schema.Record) bool) {
	for i := range e.shards {
		snap := e.shards[i].snap.Load()
		for _, l := range snap.levels {
			if !eachRow(l.rows, e.arity, yield) {
				return
			}
		}
		if !eachRow(snap.tail.published(e.arity), e.arity, yield) {
			return
		}
	}
}

// StaticFrac reports the fraction of records currently resident in the
// ladder's levels (diagnostics: 1.0 right after Compact, dipping as
// tails fill).
func (e *Sharded) StaticFrac() float64 {
	levels, tails := e.count()
	if levels+tails == 0 {
		return 1
	}
	return float64(levels) / float64(levels+tails)
}
