// Package summary maintains the per-node hierarchical aggregate layer:
// per-prefix counters (record counts and per-attribute sums) rolled up a
// fixed binary cut of the indexed data space, plus a bounded
// heavy-hitter sketch per tree node, snapshotted copy-on-write like the
// record store so reads are lock-free. It is the Flowyager-style
// summary MIND answers COUNT/SUM/top-k whale queries from in O(cover)
// instead of touching every record (DESIGN.md §4i).
package summary

import (
	"cmp"
	"slices"
)

// Sketch is a deterministic space-saving heavy-hitter sketch with a
// fixed capacity of K monitored keys. Estimates are overestimates that
// carry their own error: for a monitored key,
//
//	Count - Err <= true weight <= Count
//
// and any key NOT monitored has true weight <= Floor. Floor == 0 means
// the sketch is exact: nothing was ever evicted or truncated anywhere
// in its offer/merge history, so every Count is the true weight.
//
// Determinism: eviction picks the minimum-count entry with ties broken
// toward the smallest key, and Merge canonicalizes (count descending,
// key ascending) before truncating, so a sketch's state is a pure
// function of the multiset of offered streams — the property the
// simnet reproducibility contract and the merge-commutativity tests
// rest on.
type Sketch struct {
	k       int
	n       uint64 // total offered weight
	floor   uint64 // upper bound on the true weight of any absent key
	entries []Entry
	// idx maps a monitored key to its entry: a lookup index only OfferN
	// needs, built by the first one (lookup) and dropped (nil) by every
	// method that replaces entries wholesale. A sketch that is only ever
	// merged — a rollup cell's, a decoded answer's — never pays for one.
	idx map[uint64]int
}

// Entry is one monitored key with its bracketed estimate.
type Entry struct {
	Key   uint64
	Count uint64 // overestimate of the true weight
	Err   uint64 // Count - Err is a valid underestimate
}

// NewSketch creates an empty sketch monitoring at most k keys.
func NewSketch(k int) *Sketch {
	if k < 1 {
		k = 1
	}
	return &Sketch{k: k}
}

// FromParts reassembles a sketch from its wire representation. Keys in
// entries must be distinct; the slice is retained.
func FromParts(k int, n, floor uint64, entries []Entry) *Sketch {
	if k < len(entries) {
		k = len(entries)
	}
	s := &Sketch{k: k, n: n, floor: floor, entries: entries}
	if s.k < 1 {
		s.k = 1
	}
	return s
}

// K returns the sketch capacity.
func (s *Sketch) K() int { return s.k }

// N returns the total offered weight (across all merged streams).
func (s *Sketch) N() uint64 { return s.n }

// Floor returns the absent-key bound: any key not monitored has true
// weight <= Floor.
func (s *Sketch) Floor() uint64 { return s.floor }

// Exact reports whether every monitored count is the true weight (no
// eviction or truncation ever discarded mass).
func (s *Sketch) Exact() bool { return s.floor == 0 }

// Len returns the number of monitored keys.
func (s *Sketch) Len() int { return len(s.entries) }

// Offer records one occurrence of key.
func (s *Sketch) Offer(key uint64) { s.OfferN(key, 1) }

// OfferN records w occurrences of key — the space-saving step: a new
// key evicts the minimum entry and inherits its estimate as error.
func (s *Sketch) OfferN(key, w uint64) {
	if w == 0 {
		return
	}
	s.n += w
	if i, ok := s.lookup()[key]; ok {
		s.entries[i].Count += w
		return
	}
	if len(s.entries) < s.k {
		// The key may have carried up to Floor weight while absent
		// (post-merge-truncation sketches have Floor > 0 below capacity).
		s.idx[key] = len(s.entries)
		s.entries = append(s.entries, Entry{Key: key, Count: s.floor + w, Err: s.floor})
		return
	}
	mi := 0
	for i := 1; i < len(s.entries); i++ {
		e, m := &s.entries[i], &s.entries[mi]
		if e.Count < m.Count || (e.Count == m.Count && e.Key < m.Key) {
			mi = i
		}
	}
	ev := s.entries[mi]
	// The new key's prior weight is bounded by both the evicted estimate
	// and the floor (merges can leave entries below the floor).
	m := ev.Count
	if s.floor > m {
		m = s.floor
	}
	s.floor = m
	delete(s.idx, ev.Key)
	s.idx[key] = mi
	s.entries[mi] = Entry{Key: key, Count: m + w, Err: m}
}

// lookup returns the key → entry index, building it from the entries on
// first use. The size hint is capped at DefaultK beyond the entries at
// hand: k may come off the wire (FromParts), and the map grows anyway.
func (s *Sketch) lookup() map[uint64]int {
	if s.idx == nil {
		s.idx = make(map[uint64]int, max(len(s.entries), min(s.k, DefaultK)))
		for i, e := range s.entries {
			s.idx[e.Key] = i
		}
	}
	return s.idx
}

// Top returns the monitored entries in canonical order (count
// descending, key ascending), freshly allocated.
func (s *Sketch) Top() []Entry {
	out := append([]Entry(nil), s.entries...)
	sortEntries(out)
	return out
}

// Clone deep-copies the sketch's entries; the copy builds its own lookup
// index if it is offered to.
func (s *Sketch) Clone() *Sketch {
	return &Sketch{k: s.k, n: s.n, floor: s.floor, entries: append([]Entry(nil), s.entries...)}
}

// Merge folds o into s. Shared keys sum counts and errors exactly; a
// key monitored on only one side absorbs the other side's Floor into
// both count and error (it may have carried that much unseen weight).
// The union is canonicalized and truncated back to capacity, raising
// Floor by the truncated estimates. Merge is exactly commutative; it is
// associative when no truncation occurs and bounds-preserving always.
// It is MergeMany of one part, so neither side needs a lookup index.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || (o.n == 0 && o.floor == 0 && len(o.entries) == 0) {
		return
	}
	s.MergeMany([]*Sketch{o})
}

// MergeMany folds a batch of sketches into s with one combine-and-
// truncate step. Bounds-wise it dominates any chain of pairwise Merges:
// each pairwise truncation bakes its discards into the floor that every
// later-absent key then absorbs, while a single combine truncates once,
// so the resulting floor and per-entry errors are never larger than a
// sequential order's. Cost-wise it is one pass over all entries plus one
// sort instead of a sort and map rebuild per part — the difference
// between O(cover·K log K) and O(E log E) when a Resolve folds hundreds
// of covered cells. Merge(s, o) is MergeMany(s, [o]), and the result is
// a pure function of the multiset of contributors.
func (s *Sketch) MergeMany(parts []*Sketch) {
	type acc struct {
		key        uint64
		count, err uint64
		seen       uint64 // Σ floors of contributors monitoring the key
	}
	total := s.floor // Σ floors across all contributors
	n := s.n
	capE := len(s.entries)
	for _, p := range parts {
		if p != nil {
			capE += len(p.entries)
		}
	}
	accs := make([]acc, 0, capE)
	at := make(map[uint64]int32, capE)
	add := func(entries []Entry, floor uint64) {
		for _, e := range entries {
			if i, ok := at[e.Key]; ok {
				a := &accs[i]
				a.count += e.Count
				a.err += e.Err
				a.seen += floor
				continue
			}
			at[e.Key] = int32(len(accs))
			accs = append(accs, acc{key: e.Key, count: e.Count, err: e.Err, seen: floor})
		}
	}
	add(s.entries, s.floor)
	for _, p := range parts {
		if p == nil || (p.n == 0 && p.floor == 0 && len(p.entries) == 0) {
			continue
		}
		total += p.floor
		n += p.n
		add(p.entries, p.floor)
	}
	merged := make([]Entry, len(accs))
	for i, a := range accs {
		// Contributors not monitoring the key may have carried up to their
		// floors of its weight unseen.
		miss := total - a.seen
		merged[i] = Entry{Key: a.key, Count: a.count + miss, Err: a.err + miss}
	}
	floor := total
	if len(merged) > s.k {
		selectTopK(merged, s.k)
		for _, e := range merged[s.k:] {
			if e.Count > floor {
				floor = e.Count
			}
		}
		merged = merged[:s.k:s.k]
	}
	sortEntries(merged)
	s.n = n
	s.floor = floor
	s.entries = merged
	s.idx = nil
}

func sortEntries(es []Entry) { slices.SortFunc(es, entryCmp) }

// entryCmp is the canonical entry order: count descending, key
// ascending. It is total (keys are distinct), which is what makes the
// selectTopK split deterministic.
func entryCmp(a, b Entry) int {
	if c := cmp.Compare(b.Count, a.Count); c != 0 {
		return c
	}
	return cmp.Compare(a.Key, b.Key)
}

func entryBefore(a, b Entry) bool { return entryCmp(a, b) < 0 }

// selectTopK partially partitions es so es[:k] holds the k first
// entries under the canonical order, in expected O(len(es)) — the
// MergeMany truncation step, where sorting the full union would cost
// O(E log E) to keep only K. Which entries land in es[:k] is
// deterministic because the order is total; their internal order is not,
// so callers sort the prefix afterwards.
func selectTopK(es []Entry, k int) {
	lo, hi := 0, len(es)-1
	for lo < hi {
		// Median-of-three pivot, parked at hi.
		mid := lo + (hi-lo)/2
		if entryBefore(es[mid], es[lo]) {
			es[mid], es[lo] = es[lo], es[mid]
		}
		if entryBefore(es[hi], es[lo]) {
			es[hi], es[lo] = es[lo], es[hi]
		}
		if entryBefore(es[hi], es[mid]) {
			es[hi], es[mid] = es[mid], es[hi]
		}
		es[mid], es[hi] = es[hi], es[mid]
		pivot := es[hi]
		i := lo
		for j := lo; j < hi; j++ {
			if entryBefore(es[j], pivot) {
				es[i], es[j] = es[j], es[i]
				i++
			}
		}
		es[i], es[hi] = es[hi], es[i]
		if i >= k {
			hi = i - 1
		} else {
			lo = i + 1
		}
	}
}
