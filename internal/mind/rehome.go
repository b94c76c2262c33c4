package mind

import (
	"mind/internal/bitstr"
	"mind/internal/embed"
	"mind/internal/schema"
	"mind/internal/store"
	"mind/internal/wire"
)

// Re-homing stored records. Every repair that runs when regions move — a
// version flip or a step-down (§3.7), a takeover and its recall (§3.8), a
// split transfer — asks one question of a store: which code does this
// version's tree place each record at, this deep? This file holds the one
// walk that answers it, the one constructor of the insert that carries a
// stored record to its new home, and the repairs built from the two. Every
// re-insert leaves through sendInserts, one group per call and index.
// Emission order is behaviour the chaos digests pin: indices by tag,
// versions ascending, Sharded.All order within one, ids minted in that order.

// placed visits st's records, each with the code tree places it at,
// depth bits deep. The record is a store view: it may be retained, which
// pins its arena, and never modified.
func placed(sch *schema.Schema, tree *embed.Tree, st *store.Sharded, depth int, fn func(rec schema.Record, pc bitstr.Code)) {
	var scratch []uint64
	st.All(func(rec schema.Record) bool {
		scratch = rec.PointInto(sch, scratch)
		fn(rec, tree.PointCode(scratch, depth))
		return true
	})
}

// repairInsert builds the insert that carries an already stored record of
// version v toward target, under a fresh ReqID, as a repeat: the
// owner stores it only if it holds no equal copy (another
// holder's re-insert of it, or an earlier repair's). The record may be a
// store view: sendRepairs copies it out before the insert leaves.
func (n *Node) repairInsert(v uint32, epoch uint64, rec schema.Record, target bitstr.Code) insertOp {
	return insertOp{version: v, epoch: epoch, rec: rec, target: target, repeat: true}
}

// sendRepairs sends one index's re-inserts as one insert group, routed,
// acked and retransmitted like any other. Their records are copied into
// one slab first: an op's store view would pin its arena until the ack.
func (n *Node) sendRepairs(tag string, ops []insertOp) {
	if len(ops) > 0 {
		slabRecs(ops)
		n.sendInserts(tag, ops, nil)
	}
}

// rehomeForeign re-inserts every primary record of version v that the
// version's current tree places outside this node's region; it returns
// how many. The local copies stay — keeping them is the conservative side
// of a lost re-insert — and never reach an answer: a responder clips
// every piece to its region's cell. The re-inserts are repeats, so an
// owner that already holds a record (an earlier repair's copy) keeps one.
func (n *Node) rehomeForeign(ix *index, v uint32) int {
	tree, epoch := ix.treeAndEpoch(v)
	if epoch&retiredEpochBit != 0 || !ix.primary.Has(v) {
		return 0
	}
	myCode := n.ov.Code()
	var outs []insertOp
	placed(ix.sch, tree, ix.primary.Version(v), clampDepth(myCode.Len()+n.cfg.InsertDepthSlack), func(rec schema.Record, pc bitstr.Code) {
		if !myCode.IsPrefixOf(pc) {
			outs = append(outs, n.repairInsert(v, epoch, rec, pc))
		}
	})
	n.sendRepairs(ix.sch.Tag, outs)
	return len(outs)
}

// handleRegionRecall re-inserts replica records (and stranded primary
// records of regions this node no longer owns) that fall inside the
// recalled region; normal greedy routing delivers them to the region's
// new owner. Every replica holder recalls its own copy, so one record can
// arrive once per holder under fresh ReqIDs: the re-inserts are
// repeats, and the owner stores the first and acks the rest.
func (n *Node) handleRegionRecall(m *wire.RegionRecall) {
	if !n.markOp(m.OpID) {
		return
	}
	n.flood(m)

	myCode := n.ov.Code()
	depth := clampDepth(m.Region.Len() + n.cfg.InsertDepthSlack)
	for _, ix := range n.sortedIndices() {
		var outs []insertOp
		// Replicas first, then stranded primary data: records this node
		// still holds for a region it relocated away from.
		for _, vs := range []*store.Versioned{ix.replicas, ix.primary} {
			for _, v := range vs.Versions() {
				tree, epoch := ix.treeAndEpoch(v)
				placed(ix.sch, tree, vs.Version(v), depth, func(rec schema.Record, pc bitstr.Code) {
					// What falls inside our own region we already serve.
					if m.Region.IsPrefixOf(pc) && !myCode.IsPrefixOf(pc) {
						outs = append(outs, n.repairInsert(v, epoch, rec, pc))
					}
				})
			}
		}
		n.sendRepairs(ix.sch.Tag, outs)
	}
}

// onSplit runs on the split-target side. In TransferOnSplit mode the
// joiner-region records move to the joiner; otherwise they stay here and
// the joiner's history pointer finds them.
func (n *Node) onSplit(oldCode, newCode bitstr.Code, joiner wire.NodeInfo) {
	if !n.cfg.TransferOnSplit {
		return
	}
	for _, ix := range n.sortedIndices() {
		var pushes []insertOp
		for _, v := range ix.primary.Versions() {
			tree, epoch := ix.treeAndEpoch(v)
			st := ix.primary.Version(v)
			var keep []schema.Record
			placed(ix.sch, tree, st, joiner.Code.Len(), func(rec schema.Record, pc bitstr.Code) {
				if joiner.Code.IsPrefixOf(pc) {
					pushes = append(pushes, n.repairInsert(v, epoch, rec, joiner.Code))
				} else {
					keep = append(keep, rec)
				}
			})
			if len(keep) < st.Len() {
				ix.primary.Drop(v)
				eng := ix.primary.Version(v)
				for _, rec := range keep {
					eng.Insert(rec)
				}
			}
		}
		n.sendRepairs(ix.sch.Tag, pushes)
	}
}

// onTakeover absorbs replicated data for the dead sibling region into
// primary storage, then re-replicates the merged store to the node's
// new replica set. Without re-replication, a node that absorbed its
// sibling's data holds the only copy (its own replica target WAS the
// dead sibling), so a later failure would lose both — re-replication is
// what lets one-replica MIND ride out gradual failures (§3.8, Fig 16).
func (n *Node) onTakeover(dead, oldCode bitstr.Code) {
	owner := n.ov.Code()
	var pushes []insertRec
	for _, ix := range n.sortedIndices() {
		ix.absorbReplicas(dead)
		if n.cfg.Replication == 0 {
			continue
		}
		// Re-replicate only the absorbed region's records: the rest of
		// the store was replicated when it was stored, and re-pushing
		// everything on every takeover would storm the network during
		// failure cascades.
		for _, v := range ix.primary.Versions() {
			placed(ix.sch, ix.tree(v), ix.primary.Version(v), dead.Len(), func(rec schema.Record, pc bitstr.Code) {
				if dead.IsPrefixOf(pc) {
					pushes = append(pushes, insertRec{index: ix.sch.Tag, version: v, rec: rec})
				}
			})
		}
	}
	replicas := n.replicaTargets()
	ob := &outbox{n: n}
	for i := range pushes {
		for _, addr := range replicas {
			n.postReplica(ob, addr, owner, &pushes[i])
		}
	}
	ob.flush()

	// Recall any surviving replicas of the adopted region from the rest
	// of the overlay: after a relocation takeover this node starts with
	// an empty store for the region, and even after a sibling takeover
	// stragglers may exist at other replica levels.
	opID := n.nextReq()
	n.markOp(opID)
	n.flood(&wire.RegionRecall{OpID: opID, Region: dead})
}
