package mind

import (
	"fmt"
	"time"

	"mind/internal/embed"
	"mind/internal/metrics"
	"mind/internal/wire"
)

// Crash-safe reversioning (§3.7 under faults). The paper's prototype
// computed new cut trees off-line and assumed every node observed the
// flip; under live load with message loss and partitions three things
// go wrong, and this file owns their repair:
//
//   - A node misses the HistInstall flood and keeps hashing with the
//     old tree. Every data message carries the originator's TreeEpoch;
//     the side with the older epoch is detected at tree-use points and
//     catches up via TreePull/TreePush before wrong-tree placement or
//     wrong-tree query decomposition can do damage.
//   - An idle node never touches traffic, so no data message exposes
//     its skew. Heartbeats carry a digest of the whole version-epoch
//     state; a mismatch triggers a TreeSyncReq/TreeSyncResp exchange
//     and targeted pulls.
//   - Both halves of a partition run the reversion independently.
//     Epochs embed a content signature, so the concurrent installs
//     compare unequal and every node converges on one deterministic
//     winner after the heal.

// retiredEpochBit marks a version's epoch entry as a retirement: the
// marker beats any live epoch, making retirement sticky against
// stragglers re-flooding an old install.
const retiredEpochBit = uint64(1) << 63

// makeTreeEpoch builds a tree epoch: install counter in the high bits,
// a content signature of the marshalled tree in the low 16. Plain
// uint64 comparison then totally orders installs — a later counter
// beats an earlier one, and two concurrent installs with the same
// counter (both partition halves reran the reversion) break the tie by
// signature.
func makeTreeEpoch(counter uint64, treeBytes []byte) uint64 {
	return counter<<16 | fnvBytes(treeBytes)&0xffff
}

// nextTreeEpoch derives the epoch for a fresh install of a version from
// its current local epoch. The retired bit is masked out of the
// counter so a reinstall attempt under a retirement mints a live epoch
// that the sticky marker correctly refuses everywhere.
func nextTreeEpoch(cur uint64, treeBytes []byte) uint64 {
	return makeTreeEpoch((cur&^retiredEpochBit)>>16+1, treeBytes)
}

func fnvBytes(b []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// versionDigest is the overlay's VersionDigest callback: one value
// summarizing every index's version-epoch state, carried on heartbeats.
func (n *Node) versionDigest() uint64 {
	var d uint64
	for _, ix := range n.sortedIndices() {
		d ^= ix.digest()
	}
	return d
}

// rateOnce is the per-key rate limiter for skew-repair traffic (pulls,
// pushes, sync requests): every heartbeat or data message from a skewed
// peer would otherwise re-trigger the same repair. The map is pruned
// wholesale when it grows large, which at worst re-admits one early
// repeat per key.
func (n *Node) rateOnce(key string, interval time.Duration) bool {
	now := n.clock.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	if t, ok := n.repairAt[key]; ok && now.Sub(t) < interval {
		return false
	}
	if len(n.repairAt) > 4096 {
		n.repairAt = make(map[string]time.Time)
	}
	n.repairAt[key] = now
	return true
}

func (n *Node) repairInterval() time.Duration {
	if hb := n.cfg.Overlay.HeartbeatInterval; hb > 0 {
		return hb
	}
	return time.Second
}

// treePull asks addr for one version's installed tree (we observed a
// newer epoch than ours).
func (n *Node) treePull(addr, tag string, version uint32) {
	if addr == "" || addr == n.ep.Addr() {
		return
	}
	if !n.rateOnce(fmt.Sprintf("pull|%s|%s|%d", addr, tag, version), n.repairInterval()) {
		return
	}
	n.treePulls.Add(1)
	n.send(addr, &wire.TreePull{From: n.ep.Addr(), Index: tag, Version: version})
}

// treePushTo ships our installed tree (or retirement marker) for one
// version to a peer observed using an older epoch.
func (n *Node) treePushTo(addr string, ix *index, version uint32) {
	if addr == "" || addr == n.ep.Addr() {
		return
	}
	if n.rateOnce(fmt.Sprintf("push|%s|%s|%d", addr, ix.sch.Tag, version), n.repairInterval()) {
		n.sendTreePush(addr, ix, version)
	}
}

// sendTreePush ships one version's tree, or its bare retirement marker;
// a version still on the base tree has nothing authoritative to share.
func (n *Node) sendTreePush(addr string, ix *index, version uint32) {
	tree, epoch := ix.treeAndEpoch(version)
	if epoch == 0 {
		return
	}
	msg := &wire.TreePush{Index: ix.sch.Tag, Version: version, Epoch: epoch}
	if epoch&retiredEpochBit == 0 {
		msg.Tree = tree.Marshal()
	}
	n.treePushes.Add(1)
	n.send(addr, msg)
}

func (n *Node) handleTreePull(m *wire.TreePull) {
	if ix, ok := n.getIndex(m.Index); ok {
		n.sendTreePush(m.From, ix, m.Version)
	}
}

func (n *Node) handleTreePush(m *wire.TreePush) {
	ix, ok := n.getIndex(m.Index)
	if !ok {
		return
	}
	if m.Epoch&retiredEpochBit != 0 {
		n.applyRetire(ix, m.Version, m.Epoch)
		return
	}
	tree, err := embed.Unmarshal(m.Tree)
	if err != nil || tree.Dims() != ix.sch.IndexDims {
		return
	}
	n.applyInstall(ix, m.Version, tree, m.Epoch)
}

// onVersionSkew is the overlay's skew callback: a heartbeat exchange
// showed a peer whose digest differs from ours. Ask for its version
// summary; whoever is behind on a version pulls. Rate-limited per peer,
// since digests keep mismatching on every heartbeat until the sync
// completes.
func (n *Node) onVersionSkew(peer wire.NodeInfo) {
	if !n.rateOnce("sync|"+peer.Addr, 2*n.repairInterval()) {
		return
	}
	n.treeSyncs.Add(1)
	n.send(peer.Addr, &wire.TreeSyncReq{From: n.ep.Addr()})
}

func (n *Node) handleTreeSyncReq(m *wire.TreeSyncReq) {
	resp := &wire.TreeSyncResp{From: n.ep.Addr()}
	for _, ix := range n.sortedIndices() {
		resp.Entries = append(resp.Entries, ix.entries()...)
	}
	n.send(m.From, resp)
}

func (n *Node) handleTreeSyncResp(m *wire.TreeSyncResp) {
	for _, e := range m.Entries {
		ix, ok := n.getIndex(e.Index)
		if !ok {
			continue
		}
		if e.Epoch <= ix.epochOf(e.Version) {
			continue // at least as fresh; the peer's own sync pulls from us
		}
		if e.Epoch&retiredEpochBit != 0 {
			n.applyRetire(ix, e.Version, e.Epoch)
		} else {
			n.treePull(m.From, e.Index, e.Version)
		}
	}
}

// applyInstall runs the full local install path for a tree that arrived
// with an epoch: apply if it advances the version, then re-place the
// records the flip strands and sweep versions past the retention
// window. Reports whether the install was applied.
func (n *Node) applyInstall(ix *index, version uint32, tree *embed.Tree, epoch uint64) bool {
	if !ix.install(version, tree, epoch) {
		n.verInstallsRefused.Add(1)
		return false
	}
	n.verInstalls.Add(1)
	// Repair mid-flip placement: records of the flipped version inserted
	// before this node saw the install were placed by the old tree, so
	// under the new cuts some of them belong elsewhere and queries
	// decomposed with the new tree would never visit them here.
	if n.ov.Joined() {
		n.reshuffled.Add(uint64(n.rehomeForeign(ix, version)))
	}
	n.autoRetire(ix, version)
	return true
}

// applyRetire marks a version retired and drops its tree and store
// snapshots — the end of the dual-version window for that version.
func (n *Node) applyRetire(ix *index, version uint32, marker uint64) {
	if !ix.retire(version, marker) {
		return
	}
	ix.primary.Drop(version)
	ix.replicas.Drop(version)
	n.verRetired.Add(1)
}

// autoRetire closes the dual-version window: after version V installs,
// any version more than RetainVersions behind it is retired — tree,
// primary snapshot and replica snapshot — so memory stops growing
// across reversions. Distance uses uint32 wraparound arithmetic with a
// half-range guard, so the ^uint32(0) → 0 rollover retires correctly
// and a "newer" version can never be mistaken for a hugely old one.
// Every node sweeps locally on install (the install flood reaches all
// nodes, so no extra retire flood is needed); node-local markers may
// differ in their low bits and converge via the TreeSync anti-entropy.
func (n *Node) autoRetire(ix *index, installed uint32) {
	r := n.cfg.RetainVersions
	if r <= 0 {
		return
	}
	old := func(v uint32) bool {
		d := installed - v
		return d > uint32(r) && d < 1<<31
	}
	for _, v := range ix.primary.Prune(func(v uint32) bool { return !old(v) }) {
		marker := retiredEpochBit | ix.epochOf(v)&^retiredEpochBit
		if ix.retire(v, marker) {
			n.verRetired.Add(1)
		}
		ix.replicas.Drop(v)
	}
	// Tree-only versions (no local data) retire too.
	for _, v := range ix.treeVersions() {
		e := ix.epochOf(v)
		if e&retiredEpochBit != 0 || !old(v) {
			continue
		}
		if ix.retire(v, retiredEpochBit|e&^retiredEpochBit) {
			ix.replicas.Drop(v)
			n.verRetired.Add(1)
		}
	}
}

// onStepDown is the overlay's step-down callback: this node lost a
// split-brain ownership dispute and is rejoining through the winner.
// Flag the rejoin so onJoined re-inserts the primary records this node
// holds for regions the winner's side now owns.
func (n *Node) onStepDown(winner wire.NodeInfo) {
	n.stepDowns.Add(1)
	n.mu.Lock()
	n.reinsertOnJoin = true
	n.mu.Unlock()
}

// reinsertForeignPrimaries runs after a post-step-down rejoin: every
// primary record whose placement no longer falls inside this node's (new,
// usually deeper) region is re-inserted — the loser's half of the
// reconciliation contract: no acked record may be lost to the fence.
func (n *Node) reinsertForeignPrimaries() {
	for _, ix := range n.sortedIndices() {
		for _, v := range ix.primary.Versions() {
			n.reinserted.Add(uint64(n.rehomeForeign(ix, v)))
		}
	}
}

// ReversionStats snapshots the reversioning counters.
func (n *Node) ReversionStats() metrics.Reversion {
	return metrics.Reversion{
		Installs:        n.verInstalls.Load(),
		InstallsRefused: n.verInstallsRefused.Load(),
		Retired:         n.verRetired.Load(),
		TreePulls:       n.treePulls.Load(),
		TreePushes:      n.treePushes.Load(),
		TreeSyncs:       n.treeSyncs.Load(),
		SkewInserts:     n.skewInserts.Load(),
		SkewQueries:     n.skewQueries.Load(),
		Reshuffled:      n.reshuffled.Load(),
		StepDowns:       n.stepDowns.Load(),
		Reinserted:      n.reinserted.Load(),
	}
}

// VersionEntries snapshots every index's version-epoch state — the
// ClientVersions RPC payload and the ops /indices detail.
func (n *Node) VersionEntries() []wire.TreeSyncEntry {
	var out []wire.TreeSyncEntry
	for _, ix := range n.sortedIndices() {
		out = append(out, ix.entries()...)
	}
	return out
}

// handleClientVersions answers the mindctl skew probe with this node's
// overlay identity, membership epoch and full version-epoch table.
func (n *Node) handleClientVersions(from string, m *wire.ClientVersions) {
	n.send(from, &wire.ClientVersionsResp{
		ReqID:   m.ReqID,
		Addr:    n.ep.Addr(),
		Code:    n.ov.Code().String(),
		Epoch:   n.ov.Epoch(),
		Entries: n.VersionEntries(),
	})
}
