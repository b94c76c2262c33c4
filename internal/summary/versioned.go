package summary

import (
	"sort"
	"sync"

	"mind/internal/schema"
)

// Sharded groups per-shard summaries aligned one-to-one with the record
// store's shards, so the (version, shard) aggregate fan-out resolves a
// store scan and a summary against the same record subset. The caller
// routes inserts with the store's own shard function
// (store.Sharded.ShardOf) to keep the two partitions identical.
type Sharded struct {
	shards []*Summary
}

// NewShardedSummary creates one empty summary per shard.
func NewShardedSummary(sch *schema.Schema, shards int, opts Options) *Sharded {
	if shards < 1 {
		shards = 1
	}
	s := &Sharded{shards: make([]*Summary, shards)}
	for i := range s.shards {
		s.shards[i] = New(sch, opts)
	}
	return s
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns shard i's summary.
func (s *Sharded) Shard(i int) *Summary { return s.shards[i] }

// Insert adds rec to shard i's summary.
func (s *Sharded) Insert(i int, rec schema.Record) { s.shards[i].Insert(rec) }

// Fold force-folds every shard's delta.
func (s *Sharded) Fold() {
	for _, sh := range s.shards {
		sh.Fold()
	}
}

// FoldShard force-folds one shard's delta — the store carry hook, so a
// shard's summary folds whenever its record shard carries its tail.
func (s *Sharded) FoldShard(i int) {
	if i >= 0 && i < len(s.shards) {
		s.shards[i].Fold()
	}
}

// Stats sums the per-shard stats (ops surface).
func (s *Sharded) Stats() (staticN uint64, deltaN int, folds uint64) {
	for _, sh := range s.shards {
		st, d, f := sh.Stats()
		staticN += st
		deltaN += d
		folds += f
	}
	return staticN, deltaN, folds
}

// Len returns the total summarized record count.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Versioned keys sharded summaries by index version, mirroring
// store.Versioned: the mind layer maintains one summary per (version,
// shard) next to the primary store and drops versions in lockstep with
// retirement purges.
type Versioned struct {
	sch    *schema.Schema
	shards int
	opts   Options
	mu     sync.RWMutex
	vers   map[uint32]*Sharded
}

// NewVersioned creates an empty container; shards must match the
// primary store's resolved shard count.
func NewVersioned(sch *schema.Schema, shards int, opts Options) *Versioned {
	if shards < 1 {
		shards = 1
	}
	return &Versioned{sch: sch, shards: shards, opts: opts.withDefaults(), vers: make(map[uint32]*Sharded)}
}

// Version returns the summary for a version, creating it if absent.
func (v *Versioned) Version(ver uint32) *Sharded {
	v.mu.RLock()
	s := v.vers[ver]
	v.mu.RUnlock()
	if s != nil {
		return s
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if s = v.vers[ver]; s == nil {
		s = NewShardedSummary(v.sch, v.shards, v.opts)
		v.vers[ver] = s
	}
	return s
}

// Get returns the summary for a version, or nil if absent.
func (v *Versioned) Get(ver uint32) *Sharded {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.vers[ver]
}

// Drop discards a version's summary (retirement purge).
func (v *Versioned) Drop(ver uint32) {
	v.mu.Lock()
	delete(v.vers, ver)
	v.mu.Unlock()
}

// Versions lists resident versions, ascending.
func (v *Versioned) Versions() []uint32 {
	v.mu.RLock()
	out := make([]uint32, 0, len(v.vers))
	for ver := range v.vers {
		out = append(out, ver)
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FoldShard force-folds shard i of every resident version. The snapshot
// is taken first so the folds run outside the container lock.
func (v *Versioned) FoldShard(i int) {
	v.mu.RLock()
	all := make([]*Sharded, 0, len(v.vers))
	for _, s := range v.vers {
		all = append(all, s)
	}
	v.mu.RUnlock()
	for _, s := range all {
		s.FoldShard(i)
	}
}

// Stats sums the per-version stats (ops surface).
func (v *Versioned) Stats() (staticN uint64, deltaN int, folds uint64) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, s := range v.vers {
		st, d, f := s.Stats()
		staticN += st
		deltaN += d
		folds += f
	}
	return staticN, deltaN, folds
}

// Len returns the total summarized record count across versions.
func (v *Versioned) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	n := 0
	for _, s := range v.vers {
		n += s.Len()
	}
	return n
}
