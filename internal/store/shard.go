package store

import (
	"sync"
	"sync/atomic"

	"mind/internal/schema"
)

// Defaults for Options zero values. The shard count default is a fixed
// constant, NOT a hardware probe: simnet experiments require identical
// behavior for a seed on every machine, and the shard layout shapes
// result ordering and merge timing. It defaults to 1 because hash
// routing spreads every region across all shards, so a selective range
// query pays a near-full traversal per shard — sharding is a
// write-scaling trade (per-shard writer mutexes, per-(version, shard)
// query fan-out) that deployments opt into by sizing it to the machine
// via Config.StoreShards (mindnode -store-shards defaults to
// GOMAXPROCS); see BenchmarkStoreLayout for the measured cost curve.
const (
	defaultShards    = 1
	defaultMergeFrac = 0.25
	defaultDeltaMin  = 512
)

// Options tunes the Sharded engine.
type Options struct {
	// Shards is the number of per-core shards (rounded up to a power of
	// two, capped at 256). Each shard has its own writer mutex and
	// static+delta pair, so concurrent writers scale to the shard count
	// and each shard's working set stays cache-sized (the Ma & Cooperman
	// "distribute the index over CPU caches" partitioning). Hash routing
	// cannot prune shards on reads, so every shard pays a traversal per
	// query — leave it at the single-shard default unless writers
	// contend. 0 selects the deterministic default (1).
	Shards int
	// DeltaMergeFrac is the delta-buffer size bound as a fraction of the
	// shard's static size: when the delta exceeds
	// max(DeltaMin, frac*staticLen) records it is merged into a freshly
	// bulk-loaded static array. Smaller fractions keep more of the data
	// in the fast static layout at a higher amortized merge cost
	// (O(1/frac) merge work per record). 0 selects 0.25.
	DeltaMergeFrac float64
	// DeltaMin is the merge-threshold floor, so small shards do not
	// thrash merges. 0 selects 512.
	DeltaMin int
	// OnMerge, when set, observes each delta→static merge with the shard
	// index and the merged static length. It is invoked at the end of
	// the merge while the shard writer mutex is held, so the callback
	// must be fast and must not re-enter the store. The mind layer hooks
	// the per-shard summary fold here so the aggregate layer tracks the
	// store's static/delta rhythm.
	OnMerge func(shard, staticLen int)
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
	if o.DeltaMergeFrac <= 0 {
		o.DeltaMergeFrac = defaultMergeFrac
	}
	if o.DeltaMin <= 0 {
		o.DeltaMin = defaultDeltaMin
	}
	return o
}

// ResolveShards reports the shard count Options{Shards: n} resolves to
// after defaulting, power-of-two rounding and capping — for callers (the
// summary layer) that must partition a side structure identically to the
// store engine.
func ResolveShards(n int) int {
	return Options{Shards: n}.withDefaults().Shards
}

// shardSnap is one shard's published state: an immutable static index
// plus the mutable delta absorbing inserts. Readers load the pointer
// once and resolve against both parts; a merge publishes a replacement
// snap without mutating either old part, so in-flight readers finish on
// a consistent view.
type shardSnap struct {
	static  *Static
	delta   *KD
	mergeAt int // delta Len() that triggers the next merge
}

// engineShard is one writer domain. The pad keeps adjacent shards' hot
// fields (mu, snap) on separate cache lines so writer traffic on one
// shard does not false-share with readers of its neighbors.
type engineShard struct {
	mu   sync.Mutex
	snap atomic.Pointer[shardSnap]
	_    [48]byte
}

// Sharded is the hybrid static+delta store engine, partitioned into
// per-core shards routed by a hash of the record's indexed point
// (DESIGN.md §4h). Each shard holds a bulk-loaded Static index (the
// bulk of the data, cache-oblivious flat arrays) plus a small KD delta
// buffer (arena-backed, zero-alloc inserts); when a delta outgrows
// DeltaMergeFrac of its static partner the shard rebuilds the static
// array from both — an amortized, size-proportional merge that replaces
// the old engine's depth-triggered full rebuilds.
//
// Concurrency: inserts serialize per shard on the shard writer mutex;
// writers to different shards never touch the same cache lines. Readers
// (Query, Count, All, Len) are lock-free: they load each shard's
// published snapshot and resolve against the immutable static plus the
// COW delta. Visibility matches the KD contract — a concurrent insert
// may or may not be visible, an acknowledged one always is.
type Sharded struct {
	sch    *schema.Schema
	bounds []uint64
	opts   Options
	mask   uint64
	shards []engineShard
}

// NewSharded creates an empty sharded static+delta engine.
func NewSharded(sch *schema.Schema, opts Options) *Sharded {
	opts = opts.withDefaults()
	e := &Sharded{
		sch:    sch,
		bounds: sch.Bounds(),
		opts:   opts,
		mask:   uint64(opts.Shards - 1),
		shards: make([]engineShard, opts.Shards),
	}
	empty := newStatic(sch, e.bounds, nil)
	for i := range e.shards {
		e.shards[i].snap.Store(&shardSnap{
			static:  empty,
			delta:   newDelta(sch, e.bounds, opts.DeltaMin),
			mergeAt: opts.DeltaMin,
		})
	}
	return e
}

// NumShards returns the shard count (parallel query fan-out sizing).
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

// ShardOf exposes the shard routing function: the shard index a record
// resolves to. Callers that maintain side structures partitioned in
// lockstep with the store (the summary layer) route with this so both
// partitions stay identical.
func (e *Sharded) ShardOf(rec schema.Record) int { return e.shardOf(rec) }

// Insert adds a record to its shard's delta buffer, merging the shard
// when the delta crosses its bound. The non-merge fast path performs
// zero heap allocations (hash + arena node + atomic link).
func (e *Sharded) Insert(rec schema.Record) {
	i := e.shardOf(rec)
	sh := &e.shards[i]
	sh.mu.Lock()
	snap := sh.snap.Load()
	snap.delta.Insert(rec)
	if snap.delta.Len() >= snap.mergeAt {
		e.mergeLocked(i, sh, snap)
	}
	sh.mu.Unlock()
}

// mergeLocked rebuilds the shard's static index from static+delta and
// publishes a fresh snapshot with an empty delta. Caller holds sh.mu.
// The old snapshot's parts are never mutated: in-flight readers drain
// on them and the GC reclaims them after.
func (e *Sharded) mergeLocked(i int, sh *engineShard, snap *shardSnap) {
	// The old static's records enter the merge as views of its arena;
	// the new arena copies them, so the old one is free once readers
	// holding its views let go.
	recs := make([]schema.Record, 0, snap.static.Len()+snap.delta.Len())
	collect := func(rec schema.Record) bool {
		recs = append(recs, rec)
		return true
	}
	snap.static.All(collect)
	snap.delta.All(collect)
	st := newStatic(e.sch, e.bounds, recs)
	mergeAt := int(e.opts.DeltaMergeFrac * float64(st.Len()))
	if mergeAt < e.opts.DeltaMin {
		mergeAt = e.opts.DeltaMin
	}
	sh.snap.Store(&shardSnap{
		static:  st,
		delta:   newDelta(e.sch, e.bounds, mergeAt),
		mergeAt: mergeAt,
	})
	if e.opts.OnMerge != nil {
		e.opts.OnMerge(i, st.Len())
	}
}

// Compact force-merges every shard, leaving all records in the static
// arrays and every delta empty. Used after bulk loads (and by tests) to
// pin the engine in its steady-state layout.
func (e *Sharded) Compact() {
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		if snap := sh.snap.Load(); snap.delta.Len() > 0 {
			e.mergeLocked(i, sh, snap)
		}
		sh.mu.Unlock()
	}
}

// VisitShard calls fn with every record of shard i inside rect: the
// shard's static index, then its delta, on one published snapshot and
// one unclamped rectangle. It is the read primitive everything else
// wraps — the parallel local execution layer (mind.resolveLocal) fans
// (version, shard) tasks over it, and the aggregate path folds boundary
// cells through it without materializing a record slice. The records
// are read-only views (Static's view contract).
func (e *Sharded) VisitShard(i int, rect schema.Rect, fn func(schema.Record)) {
	var buf [maxStackDims]uint64
	hi, ok := unclamp(e.bounds, rect, buf[:0])
	if !ok {
		return
	}
	snap := e.shards[i].snap.Load()
	snap.static.visit(rect.Lo, hi, fn)
	snap.delta.visit(snap.delta.root.Load(), 0, rect.Lo, hi, fn)
}

// Visit calls fn with every record inside rect, shard by shard.
func (e *Sharded) Visit(rect schema.Rect, fn func(schema.Record)) {
	for i := range e.shards {
		e.VisitShard(i, rect, fn)
	}
}

// Query resolves an orthogonal range query across all shards.
func (e *Sharded) Query(rect schema.Rect) []schema.Record {
	return e.QueryAppend(rect, nil)
}

// QueryAppend resolves rect and appends matches to out, returning the
// extended slice.
func (e *Sharded) QueryAppend(rect schema.Rect, out []schema.Record) []schema.Record {
	e.Visit(rect, func(rec schema.Record) { out = append(out, rec) })
	return out
}

// QueryShardAppend resolves rect against one shard only, appending
// matches to out.
func (e *Sharded) QueryShardAppend(i int, rect schema.Rect, out []schema.Record) []schema.Record {
	e.VisitShard(i, rect, func(rec schema.Record) { out = append(out, rec) })
	return out
}

// Count returns the number of records inside rect: a Visit that counts.
func (e *Sharded) Count(rect schema.Rect) int {
	n := 0
	e.Visit(rect, func(schema.Record) { n++ })
	return n
}

// Len returns the number of stored records.
func (e *Sharded) Len() int {
	n := 0
	for i := range e.shards {
		snap := e.shards[i].snap.Load()
		n += snap.static.Len() + snap.delta.Len()
	}
	return n
}

// All streams every stored record; stops early if yield returns false.
// Shards stream in order, static part first — a deterministic order for
// a deterministic op history, which the simnet reproducibility contract
// requires of the replication and rebalance hand-off paths built on All.
func (e *Sharded) All(yield func(rec schema.Record) bool) {
	more := true
	each := func(rec schema.Record) bool {
		more = yield(rec)
		return more
	}
	for i := range e.shards {
		snap := e.shards[i].snap.Load()
		if snap.static.All(each); !more {
			return
		}
		if snap.delta.All(each); !more {
			return
		}
	}
}

// StaticFrac reports the fraction of records currently resident in the
// static arrays (diagnostics: 1.0 right after Compact, trending down as
// deltas fill).
func (e *Sharded) StaticFrac() float64 {
	static, total := 0, 0
	for i := range e.shards {
		snap := e.shards[i].snap.Load()
		s := snap.static.Len()
		static += s
		total += s + snap.delta.Len()
	}
	if total == 0 {
		return 1
	}
	return float64(static) / float64(total)
}
