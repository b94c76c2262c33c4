package chaos

import (
	"fmt"
	"math/big"
	"sort"
	"time"

	"mind/internal/bitstr"
	"mind/internal/cluster"
	"mind/internal/mind"
)

// Violation is one invariant failure, anchored to the schedule event
// during which it was observed.
type Violation struct {
	Event     int    `json:"event"`
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// CheckConfig carries the runner-side context the invariants need:
// which addresses are currently dead (and since when), the overlay's
// failure-detection window, and each live node's computed replica set.
type CheckConfig struct {
	Replication         int
	MaxContactsPerLevel int
	FailAfter           time.Duration
	Now                 time.Time
	DeadSince           map[string]time.Time
	ReplicaTargets      map[string][]string
}

func liveJoined(snaps []cluster.NodeState) []cluster.NodeState {
	out := make([]cluster.NodeState, 0, len(snaps))
	for _, s := range snaps {
		if !s.Dead && s.Joined {
			out = append(out, s)
		}
	}
	return out
}

// CheckMembership: at a settled checkpoint every live node must be in
// the overlay — a node that restarted but never completed its re-join
// is a repair failure, not a transient.
func CheckMembership(snaps []cluster.NodeState) []string {
	var out []string
	for _, s := range snaps {
		if !s.Dead && !s.Joined {
			out = append(out, fmt.Sprintf("live node %s not joined", s.Addr))
		}
	}
	return out
}

// CheckCover: the live nodes' codes must form a prefix-free exact cover
// of code space — no code is a prefix of another (overlapping regions)
// and the region sizes sum to the whole space (no orphaned region).
// This is the structural invariant behind MIND's zone ownership: every
// point of the embedded space has exactly one primary.
func CheckCover(snaps []cluster.NodeState) []string {
	var out []string
	lj := liveJoined(snaps)
	if len(lj) == 0 {
		return nil
	}
	for i := 0; i < len(lj); i++ {
		for j := i + 1; j < len(lj); j++ {
			a, b := lj[i], lj[j]
			if a.Code.IsPrefixOf(b.Code) || b.Code.IsPrefixOf(a.Code) {
				out = append(out, fmt.Sprintf("overlap: %s(%s) vs %s(%s)",
					a.Addr, a.Code, b.Addr, b.Code))
			}
		}
	}
	one := big.NewInt(1)
	sum := new(big.Int)
	for _, s := range lj {
		sum.Add(sum, new(big.Int).Lsh(one, uint(bitstr.MaxLen-s.Code.Len())))
	}
	full := new(big.Int).Lsh(one, uint(bitstr.MaxLen))
	if sum.Cmp(full) != 0 {
		out = append(out, fmt.Sprintf("coverage sum %s != 2^%d over %d live codes",
			sum, bitstr.MaxLen, len(lj)))
	}
	return out
}

// CheckContacts: every neighbor-table entry on a live node must be
// fresh enough to act on. A contact whose peer has been dead for well
// past the failure-detection window should have been swept; a contact
// whose recorded code is neither the peer's current code nor
// prefix-related to it (stale across a split or takeover is tolerated)
// would mis-route; and reachability should be symmetric — if A
// heartbeats B, B learns A back unless B's table at that level is full.
func CheckContacts(snaps []cluster.NodeState, cfg CheckConfig) []string {
	var out []string
	byAddr := make(map[string]cluster.NodeState, len(snaps))
	for _, s := range snaps {
		byAddr[s.Addr] = s
	}
	for _, a := range liveJoined(snaps) {
		for _, ct := range a.Overlay.Contacts {
			if ds, dead := cfg.DeadSince[ct.Addr]; dead {
				if cfg.FailAfter > 0 && cfg.Now.Sub(ds) >= 4*cfg.FailAfter {
					out = append(out, fmt.Sprintf(
						"%s retains contact %s dead for %v (probing=%v unreachable=%v lastSeen=%v attested=%v ago)",
						a.Addr, ct.Addr, cfg.Now.Sub(ds), ct.Probing, ct.Unreachable,
						cfg.Now.Sub(ct.LastSeen), cfg.Now.Sub(ct.AttestedAt)))
				}
				continue
			}
			b, known := byAddr[ct.Addr]
			if !known {
				out = append(out, fmt.Sprintf("%s has contact for unknown address %s",
					a.Addr, ct.Addr))
				continue
			}
			if b.Dead || !b.Joined {
				continue
			}
			if !ct.Code.Equal(b.Code) &&
				!ct.Code.IsPrefixOf(b.Code) && !b.Code.IsPrefixOf(ct.Code) {
				out = append(out, fmt.Sprintf("%s records %s at code %s, actual %s",
					a.Addr, ct.Addr, ct.Code, b.Code))
			}
			if ct.Unreachable || cfg.MaxContactsPerLevel <= 0 {
				continue
			}
			back := false
			lvl := b.Code.CommonPrefixLen(a.Code)
			slots := 0
			for _, bc := range b.Overlay.Contacts {
				if bc.Addr == a.Addr {
					back = true
					break
				}
				if b.Code.CommonPrefixLen(bc.Code) == lvl {
					slots++
				}
			}
			if !back && slots < cfg.MaxContactsPerLevel {
				out = append(out, fmt.Sprintf(
					"asymmetry: %s knows %s but not vice versa (level %d holds %d/%d)",
					a.Addr, b.Addr, lvl, slots, cfg.MaxContactsPerLevel))
			}
		}
	}
	return out
}

// CheckRoutability: greedy longest-common-prefix routing must make
// strict progress between every pair of live nodes — for each source A
// and target B (non-prefix-related codes), A must hold a reachable,
// live contact whose code shares a strictly longer prefix with B's code
// than A's own does. This mirrors the forwarding rule in
// hypercube.nextHopExcludingLocked: a settled overlay with a hole at
// some level would dead-end inserts and queries headed through it.
func CheckRoutability(snaps []cluster.NodeState, cfg CheckConfig) []string {
	var out []string
	lj := liveJoined(snaps)
	for _, a := range lj {
		for _, b := range lj {
			if a.Addr == b.Addr ||
				a.Code.IsPrefixOf(b.Code) || b.Code.IsPrefixOf(a.Code) {
				continue
			}
			own := a.Code.CommonPrefixLen(b.Code)
			ok := false
			for _, ct := range a.Overlay.Contacts {
				if ct.Unreachable {
					continue
				}
				if _, dead := cfg.DeadSince[ct.Addr]; dead {
					continue
				}
				if ct.Code.CommonPrefixLen(b.Code) > own {
					ok = true
					break
				}
			}
			if !ok {
				out = append(out, fmt.Sprintf(
					"greedy dead end: %s(%s) cannot make progress toward %s(%s)",
					a.Addr, a.Code, b.Addr, b.Code))
			}
		}
	}
	return out
}

// CheckReplicaSets: with replication enabled, every live node that has
// eligible contacts (non-prefix-related neighbors) must compute a
// non-empty replica set, and at a settled checkpoint every target must
// be live — a dead target means new records would be replicated into a
// void.
func CheckReplicaSets(snaps []cluster.NodeState, cfg CheckConfig) []string {
	if cfg.Replication == 0 {
		return nil
	}
	var out []string
	for _, a := range liveJoined(snaps) {
		targets := cfg.ReplicaTargets[a.Addr]
		if len(targets) == 0 {
			eligible := false
			for _, ct := range a.Overlay.Contacts {
				if _, dead := cfg.DeadSince[ct.Addr]; dead {
					continue
				}
				if a.Code.CommonPrefixLen(ct.Code) < a.Code.Len() {
					eligible = true
					break
				}
			}
			if eligible {
				out = append(out, fmt.Sprintf(
					"%s has an empty replica set despite eligible contacts", a.Addr))
			}
			continue
		}
		for _, t := range targets {
			if _, dead := cfg.DeadSince[t]; dead {
				out = append(out, fmt.Sprintf("%s replica target %s is dead", a.Addr, t))
			}
		}
	}
	return out
}

// CheckVersionAgreement: at a settled checkpoint every live joined node
// holding an index must agree on its per-version tree state — same
// version set, same tree epoch, same retirement markers. The install
// flood plus the heartbeat digest anti-entropy are supposed to converge
// this even across healed partitions where both sides ran their own
// reversion; a lasting disagreement means inserts and queries for that
// version are being decomposed under different embeddings on different
// nodes.
func CheckVersionAgreement(snaps []cluster.NodeState) []string {
	var out []string
	type refState struct {
		addr  string
		trees map[uint32]mind.TreeInfo
	}
	refs := make(map[string]refState)
	for _, s := range liveJoined(snaps) {
		for _, info := range s.Indices {
			cur := make(map[uint32]mind.TreeInfo, len(info.Trees))
			versions := make([]uint32, 0, len(info.Trees))
			for _, t := range info.Trees {
				cur[t.Version] = t
				versions = append(versions, t.Version)
			}
			ref, ok := refs[info.Tag]
			if !ok {
				refs[info.Tag] = refState{addr: s.Addr, trees: cur}
				continue
			}
			for _, v := range versions { // ascending: IndexInfos sorts entries
				t := cur[v]
				rt, ok := ref.trees[v]
				switch {
				case !ok:
					out = append(out, fmt.Sprintf(
						"%s has tree %s/v%d (epoch %d retired=%v) unknown to %s",
						s.Addr, info.Tag, v, t.Epoch, t.Retired, ref.addr))
				case rt != t:
					out = append(out, fmt.Sprintf(
						"%s tree %s/v%d epoch %d retired=%v, but %s has epoch %d retired=%v",
						s.Addr, info.Tag, v, t.Epoch, t.Retired,
						ref.addr, rt.Epoch, rt.Retired))
				}
			}
			missing := make([]uint32, 0)
			for v := range ref.trees {
				if _, ok := cur[v]; !ok {
					missing = append(missing, v)
				}
			}
			sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
			for _, v := range missing {
				rt := ref.trees[v]
				out = append(out, fmt.Sprintf(
					"%s lacks tree %s/v%d (epoch %d retired=%v on %s)",
					s.Addr, info.Tag, v, rt.Epoch, rt.Retired, ref.addr))
			}
		}
	}
	return out
}

// CheckRollup: on every live node and index the aggregate rollups must
// summarize exactly the primary records — each store shard owns the
// rollup of its own records, so takeover absorbs, split transfers,
// reshuffles and retirements, which insert into, rebuild and drop
// engines, must never leave a record in one and not the other. An
// aggregate answer's count is exact only while this holds.
func CheckRollup(snaps []cluster.NodeState) []string {
	var out []string
	for _, s := range snaps {
		for _, info := range s.Indices {
			if got := int(info.Summary.StaticRecords) + info.Summary.DeltaRecords; got != info.PrimaryRecords {
				out = append(out, fmt.Sprintf("%s index %s: rollups summarize %d records (%d folded + %d delta), primary store holds %d",
					s.Addr, info.Tag, got, info.Summary.StaticRecords, info.Summary.DeltaRecords, info.PrimaryRecords))
			}
		}
	}
	return out
}

// CheckQuiescence: once the workload has drained and the network has
// settled, no live node may still be tracking in-flight originator-side
// inserts or queries — a nonzero count means a callback leaked or a
// retransmission loop never terminated.
func CheckQuiescence(snaps []cluster.NodeState) []string {
	var out []string
	for _, s := range snaps {
		if s.Dead {
			continue
		}
		if s.Stats.PendingInserts > 0 || s.Stats.PendingQueries > 0 || s.Stats.PendingAggs > 0 {
			out = append(out, fmt.Sprintf("%s not quiescent: %d inserts, %d queries, %d aggs pending",
				s.Addr, s.Stats.PendingInserts, s.Stats.PendingQueries, s.Stats.PendingAggs))
		}
	}
	return out
}

// CheckAll runs the structural invariant suite (everything except
// quiescence, which the runner checks separately after draining) and
// tags each failure with its invariant name. The caller fills in the
// Event index.
func CheckAll(snaps []cluster.NodeState, cfg CheckConfig) []Violation {
	var out []Violation
	for _, c := range []struct {
		name    string
		details []string
	}{
		{"membership", CheckMembership(snaps)},
		{"cover", CheckCover(snaps)},
		{"contacts", CheckContacts(snaps, cfg)},
		{"routability", CheckRoutability(snaps, cfg)},
		{"replica-set", CheckReplicaSets(snaps, cfg)},
		{"version-agreement", CheckVersionAgreement(snaps)},
		{"rollup", CheckRollup(snaps)},
	} {
		for _, d := range c.details {
			out = append(out, Violation{Invariant: c.name, Detail: d})
		}
	}
	return out
}
