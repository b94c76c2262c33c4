package mind

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mind/internal/bitstr"
	"mind/internal/embed"
	"mind/internal/schema"
	"mind/internal/store"
	"mind/internal/summary"
	"mind/internal/wire"
)

// index is one distributed index's node-local state: schema, the cut
// tree of each version, primary storage, and replica storage for the
// regions this node backs up (§3.8).
//
// Concurrency: mu guards the small mutable state (vers, replicaOwners,
// seen, the history pointer, triggers). The stores themselves are safe
// for concurrent use and are accessed without mu; sch, base and timeAttr
// are immutable after construction. mu is a leaf in the node's lock
// order (node.go): it is never held across a send or while acquiring
// Node.mu or Node.ixMu.
type index struct {
	sch  *schema.Schema
	base *embed.Tree // version-independent default embedding

	mu   sync.RWMutex
	vers map[uint32]*embed.Tree // per-version balanced cuts (§3.7)
	// epochs totally orders tree installs per version: counter<<16 in the
	// high bits, a content signature of the tree in the low 16, so two
	// concurrent installs of the same counter (both sides of a partition
	// ran the reversion) still converge on one deterministic winner. An
	// entry with retiredEpochBit set marks the version retired: it beats
	// any live epoch, so retirement is sticky even against stragglers
	// re-flooding the old install. Absent means epoch 0 (base tree).
	epochs map[uint32]uint64

	// primary's engines carry the aggregate summary layer (DESIGN.md
	// §4i): every version's engine owns the rollup of its own records
	// (store.Options.Rollup), so inserting into, dropping or rebuilding a
	// version's engine is all it takes to keep the two equal. Replica
	// storage is NOT summarized and NOT indexed: its engines append
	// (store.Options.Append) — a full tail is packed into a block and
	// never carried — because a replica is read only when its owner
	// fails, and fail-over answers, replica-served aggregates,
	// absorptions and recalls read it block by block, skipping the
	// blocks whose box misses the rectangle.
	primary  *store.Versioned
	replicas *store.Versioned
	// replicaOwners records the owner codes whose data we replicate,
	// enabling fail-over answers for their regions.
	replicaOwners map[bitstr.Code]bool
	// reqSeen remembers the ReqIDs of the repeats (retransmissions and
	// repair re-inserts) that reached the primary store, so a delayed
	// original overtaken by its own retransmission is not stored twice.
	// Originals leave no id in it: a transport delivers each frame at
	// most once, so an original can collide only with a repeat, and in
	// steady state the set holds nothing. It is bounded to half the
	// node-wide dedup budget; the window is counted in repeats only.
	// The replica store needs no such set: an owner replicates a record
	// once, when it first stores it.
	reqSeen reqDedup

	// History pointer (§3.4): after this node joined by splitting
	// histAddr's region, sub-queries are forwarded there until
	// histUntil, because pre-split data stayed behind. histRegion is
	// the sibling's code at arm time: if the target is later seen
	// claiming a code outside that region it relocated or rejoined
	// elsewhere — and re-homed its stranded primaries in the process —
	// so the pointer is dropped (clearHistoryMoved).
	histAddr   string
	histRegion bitstr.Code
	histUntil  time.Time

	// triggers are the standing queries installed at this node for the
	// regions it owns (paper footnote 1). armed mirrors len(triggers) > 0,
	// written under mu, so storing a record while none is installed reads
	// neither the clock nor mu (fireTriggers).
	triggers []*trigger
	armed    atomic.Bool

	timeAttr int // index of the KindTime attribute among indexed dims, or -1
}

// reqDedup is the primary store's set of repeat ReqIDs, a flat
// two-generation table (genSet). The mark or lookup and the store insert
// happen under mu, so neither an original nor a repeat can slip past the
// other's in-flight store.
type reqDedup struct {
	mu   sync.Mutex
	seen *dedupSet
}

// newIndex creates an index: versioned primary and replica stores, the
// primary's engines carrying a rollup with the summary layer's default
// options, the replicas' appending.
func newIndex(sch *schema.Schema, base *embed.Tree) *index {
	return &index{
		sch:           sch,
		base:          base,
		vers:          make(map[uint32]*embed.Tree),
		epochs:        make(map[uint32]uint64),
		primary:       store.NewVersionedOpts(sch, store.Options{Rollup: &summary.Options{}}),
		replicas:      store.NewVersionedOpts(sch, store.Options{Append: true}),
		replicaOwners: make(map[bitstr.Code]bool),
		reqSeen:       reqDedup{seen: newDedupSet(dedupCap / 2)},
		timeAttr:      sch.TimeDim(),
	}
}

// tree returns the embedding for a version, falling back to the base.
func (ix *index) tree(v uint32) *embed.Tree {
	ix.mu.RLock()
	t := ix.treeLocked(v)
	ix.mu.RUnlock()
	return t
}

// treeLocked is tree for callers already holding ix.mu.
func (ix *index) treeLocked(v uint32) *embed.Tree {
	if t, ok := ix.vers[v]; ok {
		return t
	}
	return ix.base
}

// setTreeEpoch force-sets a version's epoch (tests only).
func (ix *index) setTreeEpoch(v uint32, epoch uint64) {
	ix.mu.Lock()
	ix.epochs[v] = epoch
	ix.mu.Unlock()
}

// epochOf returns a version's tree epoch (0: base tree, never installed).
func (ix *index) epochOf(v uint32) uint64 {
	ix.mu.RLock()
	e := ix.epochs[v]
	ix.mu.RUnlock()
	return e
}

// treeAndEpoch reads a version's embedding and epoch in one critical
// section, so an originator's stamped epoch always matches the tree it
// hashed with.
func (ix *index) treeAndEpoch(v uint32) (*embed.Tree, uint64) {
	ix.mu.RLock()
	t := ix.treeLocked(v)
	e := ix.epochs[v]
	ix.mu.RUnlock()
	return t, e
}

// install applies a flood- or pull-delivered tree iff its epoch beats
// the local one (including a retired marker, which beats everything
// live); it reports whether the install was applied.
func (ix *index) install(v uint32, t *embed.Tree, epoch uint64) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if epoch <= ix.epochs[v] {
		return false
	}
	ix.vers[v] = t
	ix.epochs[v] = epoch
	return true
}

// retire marks a version retired under the given marker epoch (must
// have retiredEpochBit set) and drops its tree; it reports whether the
// marker advanced the local state. Callers drop the version's store
// snapshots afterwards.
func (ix *index) retire(v uint32, marker uint64) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if marker <= ix.epochs[v] {
		return false
	}
	delete(ix.vers, v)
	ix.epochs[v] = marker
	return true
}

// historyTTL is how long after a split the joiner forwards sub-queries
// to its split sibling for data stored before the split (§3.4: "the
// pointer will be dropped once the data have aged").
const historyTTL = 10 * time.Minute

// setHistory arms the §3.4 history pointer toward the split sibling on
// an already-published index (the rejoin path; a fresh join sets the
// fields directly before publication).
func (ix *index) setHistory(addr string, region bitstr.Code, until time.Time) {
	ix.mu.Lock()
	ix.histAddr = addr
	ix.histRegion = region
	ix.histUntil = until
	ix.mu.Unlock()
}

// entries snapshots the per-version epoch state (installed and retired)
// in ascending version order — the TreeSync summary.
func (ix *index) entries() []wire.TreeSyncEntry {
	ix.mu.RLock()
	out := make([]wire.TreeSyncEntry, 0, len(ix.epochs))
	for v, e := range ix.epochs {
		out = append(out, wire.TreeSyncEntry{Index: ix.sch.Tag, Version: v, Epoch: e})
	}
	ix.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out
}

// digest folds the index's version-epoch state into one value for the
// heartbeat anti-entropy exchange. XOR keeps it order-independent; 0
// means "everything at base".
func (ix *index) digest() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var d uint64
	for v, e := range ix.epochs {
		h := uint64(14695981039346656037)
		for i := 0; i < len(ix.sch.Tag); i++ {
			h ^= uint64(ix.sch.Tag[i])
			h *= 1099511628211
		}
		h ^= uint64(v)
		h *= 1099511628211
		h ^= e
		h *= 1099511628211
		d ^= h
	}
	return d
}

// treeVersions snapshots the versions with a non-zero epoch entry.
func (ix *index) treeVersions() []uint32 {
	ix.mu.RLock()
	out := make([]uint32, 0, len(ix.epochs))
	for v := range ix.epochs {
		out = append(out, v)
	}
	ix.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// version maps a record to its version by the time attribute.
func (ix *index) version(rec schema.Record, versionSeconds uint64) uint32 {
	if ix.timeAttr < 0 || versionSeconds == 0 {
		return 0
	}
	return uint32(rec[ix.timeAttr] / versionSeconds)
}

// queryVersions lists the versions a query rectangle's time range spans.
func (ix *index) queryVersions(rect schema.Rect, versionSeconds uint64) []uint32 {
	if ix.timeAttr < 0 || versionSeconds == 0 {
		return []uint32{0}
	}
	lo := rect.Lo[ix.timeAttr] / versionSeconds
	hi := rect.Hi[ix.timeAttr] / versionSeconds
	if hi-lo > 4096 {
		hi = lo + 4096 // sanity bound on unbounded time wildcards
	}
	out := make([]uint32, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, uint32(v))
	}
	return out
}

// groupVersionsByTree groups versions that share an embedding, so one
// overlay query can serve all of them.
func (ix *index) groupVersionsByTree(versions []uint32) map[*embed.Tree][]uint32 {
	out := make(map[*embed.Tree][]uint32)
	ix.mu.RLock()
	for _, v := range versions {
		t := ix.treeLocked(v)
		out[t] = append(out[t], v)
	}
	ix.mu.RUnlock()
	return out
}

// def serializes the index definition for join transfers and index
// creation floods.
func (ix *index) def() wire.IndexDef {
	d := wire.IndexDef{Schema: ix.sch}
	if ix.base != nil {
		d.Versions = append(d.Versions, wire.VersionDef{Version: baseVersionSentinel, Tree: ix.base.Marshal()})
	}
	ix.mu.RLock()
	for v, e := range ix.epochs {
		vd := wire.VersionDef{Version: v, Epoch: e}
		if t, ok := ix.vers[v]; ok {
			vd.Tree = t.Marshal()
		}
		// Retired versions carry the marker with no tree, so a joiner
		// inherits the retirement instead of resurrecting the version.
		d.Versions = append(d.Versions, vd)
	}
	for v, t := range ix.vers {
		if _, ok := ix.epochs[v]; !ok { // a tree with no epoch: indexFromDef accepts one from the wire
			d.Versions = append(d.Versions, wire.VersionDef{Version: v, Tree: t.Marshal()})
		}
	}
	ix.mu.RUnlock()
	sort.Slice(d.Versions, func(i, j int) bool { return d.Versions[i].Version < d.Versions[j].Version })
	return d
}

// baseVersionSentinel marks the base tree inside an IndexDef's version
// list.
const baseVersionSentinel = ^uint32(0)

// indexFromDef reconstructs an index from a wire definition.
func indexFromDef(d wire.IndexDef) (*index, error) {
	if err := d.Schema.Validate(); err != nil {
		return nil, err
	}
	var base *embed.Tree
	vers := make(map[uint32]*embed.Tree)
	epochs := make(map[uint32]uint64)
	for _, vd := range d.Versions {
		if vd.Version != baseVersionSentinel && vd.Epoch&retiredEpochBit != 0 {
			epochs[vd.Version] = vd.Epoch // retired: marker only, no tree
			continue
		}
		t, err := embed.Unmarshal(vd.Tree)
		if err != nil {
			return nil, fmt.Errorf("index %q version %d: %w", d.Schema.Tag, vd.Version, err)
		}
		if vd.Version == baseVersionSentinel {
			base = t
		} else {
			vers[vd.Version] = t
			if vd.Epoch != 0 {
				epochs[vd.Version] = vd.Epoch
			}
		}
	}
	if base == nil {
		base = embed.Uniform(d.Schema.Bounds())
	}
	ix := newIndex(d.Schema, base)
	ix.vers = vers
	ix.epochs = epochs
	return ix, nil
}

// storeRecord inserts into primary storage with ReqID dedup; it reports
// whether the record was new. A repeat (a retransmission or a repair
// re-insert) marks its ReqID in reqSeen and is new only if the id was
// unmarked and version v's store holds no equal record: its
// first copy, or another holder's re-insert of it, may be stored under
// another ReqID, or under this one (an original leaves no mark). An
// original only looks its ReqID up: it is dropped only if a repeat of it
// overtook it and was stored first. Both run under the dedup lock, so
// two copies of one record cannot both miss each other.
func (ix *index) storeRecord(v uint32, reqID uint64, rec schema.Record, repeat bool) bool {
	d := &ix.reqSeen
	d.mu.Lock()
	defer d.mu.Unlock()
	if repeat {
		if d.seen.Seen(reqID) || ix.holds(v, rec) {
			return false
		}
	} else if _, overtaken := d.seen.Get(reqID); overtaken {
		return false
	}
	ix.primary.Insert(v, rec)
	return true
}

// holds reports whether version v's primary store holds a record equal
// to rec, value for value: one point query at rec's indexed point.
func (ix *index) holds(v uint32, rec schema.Record) bool {
	st := ix.primary.Get(v)
	if st == nil {
		return false
	}
	var pbuf [8]uint64
	p := rec.PointInto(ix.sch, pbuf[:0])
	found, arity := false, ix.sch.Arity()
	st.VisitBatches(schema.Rect{Lo: p, Hi: p}, func(b *schema.Batch) {
		rows, sel := b.Rows()
		for _, o := range sel {
			found = found || slices.Equal(rows[o:int(o)+arity], rec)
		}
	})
	return found
}

// noteReplicaOwner records that this node backs up owner's region. The
// set changes only when the overlay does, so the write lock (which
// treeAndEpoch readers contend on) is taken for a new owner only.
func (ix *index) noteReplicaOwner(owner bitstr.Code) {
	ix.mu.RLock()
	known := ix.replicaOwners[owner]
	ix.mu.RUnlock()
	if !known {
		ix.mu.Lock()
		ix.replicaOwners[owner] = true
		ix.mu.Unlock()
	}
}

// ownerCodes snapshots the replica owner set.
func (ix *index) ownerCodes() []bitstr.Code {
	ix.mu.RLock()
	out := make([]bitstr.Code, 0, len(ix.replicaOwners))
	for owner := range ix.replicaOwners {
		out = append(out, owner)
	}
	ix.mu.RUnlock()
	return out
}

// absorbReplicas merges replicated data for a dead region into primary
// storage after a takeover (§3.8: the sibling serves the failed node's
// hyper-rectangle from its replicas). Absorbed records are repeats: the
// replica store can hold one record more than once (the old owner's copy
// and a later owner's), and the primary store may hold it already (a
// recall's re-insert that arrived first), so each is stored only if the
// primary store holds no equal record, under the dedup lock
// storeRecord probes under.
func (ix *index) absorbReplicas(dead bitstr.Code) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	matched := false
	for owner := range ix.replicaOwners {
		if dead.IsPrefixOf(owner) || owner.IsPrefixOf(dead) {
			matched = true
		}
	}
	if !matched {
		return
	}
	// Replica stores are not segregated by owner; absorbing moves every
	// replicated record whose point falls inside the dead region.
	d := &ix.reqSeen
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, v := range ix.replicas.Versions() {
		eng := ix.primary.Version(v)
		placed(ix.sch, ix.treeLocked(v), ix.replicas.Version(v), dead.Len(), func(rec schema.Record, pc bitstr.Code) {
			if dead.IsPrefixOf(pc) && !ix.holds(v, rec) {
				eng.Insert(rec)
			}
		})
	}
}

// history returns the history-pointer state as of now: whether the
// pointer is active, and its target address.
func (ix *index) history(now time.Time) (bool, string) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.histAddr != "" && now.Before(ix.histUntil), ix.histAddr
}

// clearHistory drops the history pointer if it targets addr. A dead
// split sibling can never answer the sub-queries delegated to it, so an
// intact pointer would leave every query over this region incomplete
// until histUntil. The pre-split records the pointer protected are the
// dead peer's data; recovering those is the replication machinery's
// concern (§3.8), not the history pointer's.
func (ix *index) clearHistory(addr string) {
	ix.mu.Lock()
	if ix.histAddr == addr {
		ix.dropHistoryLocked()
	}
	ix.mu.Unlock()
}

// dropHistoryLocked disarms the history pointer. Callers hold ix.mu.
func (ix *index) dropHistoryLocked() {
	ix.histAddr = ""
	ix.histRegion = bitstr.Empty
	ix.histUntil = time.Time{}
}

// observeHistoryTarget tracks the pointer target's position. A code
// still related to the armed region (deepened by further splits, or
// shortened by the target's own takeover) keeps the pointer — the
// records stayed put — and refines histRegion to the latest observed
// code, so region-level death notices (clearHistoryRegion) can be
// matched precisely. A code unrelated to the armed region means the
// peer moved away (relocation §3.8, or a post-step-down rejoin); both
// paths re-insert the stranded primary records it held — including the
// pre-split data this pointer delegated coverage to — so the pointer
// is obsolete, and keeping it would be worse than useless: the moved
// peer may later die unnoticed (it usually stops being a contact),
// leaving every query over this region incomplete until histUntil.
func (ix *index) observeHistoryTarget(addr string, newCode bitstr.Code) {
	ix.mu.Lock()
	if ix.histAddr == addr {
		if ix.histRegion.IsPrefixOf(newCode) || newCode.IsPrefixOf(ix.histRegion) {
			ix.histRegion = newCode
		} else {
			ix.dropHistoryLocked()
		}
	}
	ix.mu.Unlock()
}

// clearHistoryRegion drops the history pointer when the region it
// points into is declared dead (a Takeover flood names the dead code,
// not the dead address). Matching requires the dead code to COVER the
// target's last observed position: a deeper dead code may be some
// other node's sub-region while our target lives on elsewhere inside
// histRegion, so it does not clear. The eviction-then-death case this
// handles: the pointer target falls out of the contact table (per-level
// cap), this node stops heartbeating it, and the death would otherwise
// go unnoticed here — leaving queries over the region incomplete until
// histUntil while the delegated sub-queries drain into a corpse.
func (ix *index) clearHistoryRegion(dead bitstr.Code) {
	ix.mu.Lock()
	if ix.histAddr != "" && dead.IsPrefixOf(ix.histRegion) {
		ix.dropHistoryLocked()
	}
	ix.mu.Unlock()
}

// historyActive reports whether the history pointer still applies.
func (ix *index) historyActive(now time.Time) bool {
	active, _ := ix.history(now)
	return active
}
