package store

import (
	"sort"
	"sync"

	"mind/internal/schema"
)

// Versioned keeps one store per index version. MIND does not migrate
// historical data when the daily balanced cuts change; instead each day's
// data lives in its own version of the index, embedded with that day's
// cuts, and queries address the versions their time interval spans
// (§3.7). The version id is the day number (timestamp / 86400) by
// convention, but Versioned itself treats it as opaque.
//
// Each version's store is one Sharded ladder (shard.go), constructed
// with the Options the Versioned was built with.
//
// Versioned is safe for concurrent use: an RWMutex guards the version
// map (held only for map lookups, never across a store operation), and
// the per-version engines handle their own reader/writer coordination.
type Versioned struct {
	sch      *schema.Schema
	opts     Options
	mu       sync.RWMutex
	versions map[uint32]*Sharded
}

// NewVersionedOpts creates an empty versioned store whose engines are
// built with opts (a primary store's rollup, a replica store's Append).
func NewVersionedOpts(sch *schema.Schema, opts Options) *Versioned {
	return &Versioned{sch: sch, opts: opts, versions: make(map[uint32]*Sharded)}
}

// Version returns the store for version v, creating it if absent.
func (vs *Versioned) Version(v uint32) *Sharded {
	vs.mu.RLock()
	s, ok := vs.versions[v]
	vs.mu.RUnlock()
	if ok {
		return s
	}
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if s, ok = vs.versions[v]; !ok {
		s = NewSharded(vs.sch, vs.opts)
		vs.versions[v] = s
	}
	return s
}

// Get returns the store for version v, or nil if absent. Unlike
// Version it never creates the version — read paths use it to skip
// absent versions without materializing stores.
func (vs *Versioned) Get(v uint32) *Sharded {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	return vs.versions[v]
}

// Has reports whether version v exists.
func (vs *Versioned) Has(v uint32) bool { return vs.Get(v) != nil }

// Versions lists existing version ids in ascending order.
func (vs *Versioned) Versions() []uint32 {
	vs.mu.RLock()
	out := make([]uint32, 0, len(vs.versions))
	for v := range vs.versions {
		out = append(out, v)
	}
	vs.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Insert adds the record to version v.
func (vs *Versioned) Insert(v uint32, rec schema.Record) {
	vs.Version(v).Insert(rec)
}

// Query resolves rect against the given versions (missing versions are
// skipped) and concatenates the results in argument order. Each store is
// descended once; a presizing Count would be a second descent, which
// costs more than the amortized append it saves.
func (vs *Versioned) Query(versions []uint32, rect schema.Rect) []schema.Record {
	var out []schema.Record
	for _, v := range versions {
		if s := vs.Get(v); s != nil {
			out = s.QueryAppend(rect, out)
		}
	}
	return out
}

// QueryAll resolves rect against every version.
func (vs *Versioned) QueryAll(rect schema.Rect) []schema.Record {
	return vs.Query(vs.Versions(), rect)
}

// Len returns the total record count across versions.
func (vs *Versioned) Len() int {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	n := 0
	for _, s := range vs.versions {
		n += s.Len()
	}
	return n
}

// Drop removes version v and frees its storage; used when an index
// version ages out.
func (vs *Versioned) Drop(v uint32) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	delete(vs.versions, v)
}

// Prune removes every version the keep predicate rejects and returns
// the removed ids in ascending order — the bulk retirement sweep run
// when a new version's install closes the retention window.
func (vs *Versioned) Prune(keep func(uint32) bool) []uint32 {
	vs.mu.Lock()
	var out []uint32
	for v := range vs.versions {
		if !keep(v) {
			out = append(out, v)
			delete(vs.versions, v)
		}
	}
	vs.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
