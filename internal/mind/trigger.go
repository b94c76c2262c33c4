package mind

import (
	"fmt"
	"time"

	"mind/internal/schema"
	"mind/internal/transport"
	"mind/internal/wire"
)

// Triggers: standing queries (paper footnote 1 — "triggers can just as
// easily be supported in our system, with minor mechanistic
// modifications"). A trigger is a query rectangle that routes and
// decomposes exactly like a query, but instead of being answered once it
// is installed at the nodes owning the matching regions; every
// subsequently inserted record falling inside the rectangle is pushed to
// the subscriber.
//
// Triggers carry a TTL and expire at the owners: overlay regions move
// (splits, takeovers, re-balanced versions), so monitoring subscribers
// re-arm their triggers periodically — matching how the paper envisions
// operators scripting periodic anomaly polling (§3.1).

// TriggerEvent is one pushed match.
type TriggerEvent struct {
	TriggerID uint64
	Index     string
	Record    schema.Record
	From      string // address of the owner that matched it
}

// trigger is the owner-side installed state.
type trigger struct {
	id         uint64
	subscriber string
	rect       schema.Rect
	expires    time.Time
}

// triggerSub is the subscriber-side state.
type triggerSub struct {
	cb func(TriggerEvent)
	// seen dedups ReqIDs: multiple owners can match one record's
	// replicas. The copies of one match arrive within its insert's
	// retransmission horizon, as the copies a store dedups do, so the
	// node-wide bound dedupCap holds them; the table grows on demand.
	seen  *dedupSet
	timer transport.Timer
}

// TriggerTTL is how long an installed trigger stays live at the owners.
const TriggerTTL = 10 * time.Minute

// RegisterTrigger installs a standing query. The callback fires once per
// matching record inserted anywhere in the system while the trigger is
// installed. The returned id cancels it via RemoveTrigger. Re-arm before
// TriggerTTL elapses for continuous monitoring.
func (n *Node) RegisterTrigger(tag string, rect schema.Rect, cb func(TriggerEvent)) (uint64, error) {
	if !rect.Valid() {
		return 0, fmt.Errorf("mind: invalid trigger rect")
	}
	ix, ok := n.getIndex(tag)
	if !ok {
		return 0, fmt.Errorf("mind: unknown index %q", tag)
	}
	if rect.Dims() != ix.sch.IndexDims {
		return 0, fmt.Errorf("mind: trigger dims %d != index dims %d", rect.Dims(), ix.sch.IndexDims)
	}
	id := n.nextReq()
	n.mu.Lock()
	if n.triggerSubs == nil {
		n.triggerSubs = make(map[uint64]*triggerSub)
	}
	n.triggerSubs[id] = &triggerSub{cb: cb, seen: newDedupSet(dedupCap)}
	n.mu.Unlock()
	// Route toward the newest version's embedding; inserts for current
	// traffic land under it.
	versions := ix.primary.Versions()
	var v uint32
	if len(versions) > 0 {
		v = versions[len(versions)-1]
	}
	tree := ix.tree(v)
	maxDepth := clampDepth(n.ov.Code().Len() + n.cfg.InsertDepthSlack)
	target := tree.QueryCode(rect, maxDepth)

	msg := &wire.TriggerInstall{
		TriggerID:  id,
		Subscriber: n.ep.Addr(),
		Index:      tag,
		Rect:       rect.Clone(),
		Target:     target,
	}
	n.handleTriggerInstall(n.ep.Addr(), msg)
	return id, nil
}

// RemoveTrigger cancels a standing query everywhere.
func (n *Node) RemoveTrigger(id uint64) {
	opID := n.nextReq()
	n.mu.Lock()
	delete(n.triggerSubs, id)
	n.seenOps.Seen(opID) // markOp under the lock already held
	n.mu.Unlock()
	msg := &wire.TriggerRemove{OpID: opID, TriggerID: id}
	n.removeTriggerLocal(id)
	n.flood(msg)
}

func (n *Node) removeTriggerLocal(id uint64) {
	for _, ix := range n.sortedIndices() {
		ix.mu.Lock()
		kept := ix.triggers[:0]
		for _, tr := range ix.triggers {
			if tr.id != id {
				kept = append(kept, tr)
			}
		}
		ix.setTriggersLocked(kept)
		ix.mu.Unlock()
	}
}

// handleTriggerInstall routes/decomposes the install like a query and
// installs at owned regions.
func (n *Node) handleTriggerInstall(from string, m *wire.TriggerInstall) {
	if !n.ov.Joined() {
		return
	}
	if !n.ov.Owns(m.Target) {
		fwd := *m
		fwd.Hops++
		n.sendRouted(m.Target, int(m.Hops), from, &fwd)
		return
	}
	ix, ok := n.getIndex(m.Index)
	if !ok {
		return
	}
	versions := ix.primary.Versions()
	var v uint32
	if len(versions) > 0 {
		v = versions[len(versions)-1]
	}
	tree := ix.tree(v)
	myCode := n.ov.Code()

	if myCode.Len() <= m.Target.Len() {
		n.installTrigger(m)
		return
	}
	for _, sub := range tree.Decompose(m.Rect, myCode.Len()) {
		si := &wire.TriggerInstall{
			TriggerID:  m.TriggerID,
			Subscriber: m.Subscriber,
			Index:      m.Index,
			Rect:       sub.Rect,
			Target:     sub.Code,
			Hops:       m.Hops,
		}
		if sub.Code.Equal(myCode) {
			n.installTrigger(si)
		} else {
			fwd := *si
			fwd.Hops++
			n.sendRouted(sub.Code, int(m.Hops), from, &fwd)
		}
	}
}

func (n *Node) installTrigger(m *wire.TriggerInstall) {
	ix, ok := n.getIndex(m.Index)
	if !ok {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, tr := range ix.triggers {
		if tr.id == m.TriggerID {
			// Refresh on re-arm; widen the rect to the union region by
			// keeping both entries is unnecessary — the same id installs
			// one rect per owning region.
			tr.expires = n.clock.Now().Add(TriggerTTL)
			return
		}
	}
	ix.setTriggersLocked(append(ix.triggers, &trigger{
		id:         m.TriggerID,
		subscriber: m.Subscriber,
		rect:       m.Rect.Clone(),
		expires:    n.clock.Now().Add(TriggerTTL),
	}))
}

// setTriggersLocked replaces the installed triggers; the caller holds
// ix.mu.
func (ix *index) setTriggersLocked(ts []*trigger) {
	ix.triggers = ts
	ix.armed.Store(len(ts) > 0)
}

func (n *Node) handleTriggerRemove(m *wire.TriggerRemove) {
	if !n.markOp(m.OpID) {
		return
	}
	n.removeTriggerLocal(m.TriggerID)
	n.flood(m)
}

// fireTriggers checks a freshly stored record against installed
// triggers and returns the notifications to send; the caller must not
// hold ix.mu. Expired triggers are dropped in the same pass. With none
// installed it reads neither the clock nor ix.mu.
func (ix *index) fireTriggers(clock transport.Clock, rec schema.Record) []*trigger {
	if !ix.armed.Load() {
		return nil
	}
	now := clock.Now()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var fired []*trigger
	kept := ix.triggers[:0]
	for _, tr := range ix.triggers {
		if now.After(tr.expires) {
			continue // expired: drop
		}
		kept = append(kept, tr)
		if tr.rect.ContainsRecord(ix.sch, rec) {
			fired = append(fired, tr)
		}
	}
	ix.setTriggersLocked(kept)
	return fired
}

func (n *Node) handleTriggerFire(m *wire.TriggerFire) {
	n.mu.Lock()
	sub, ok := n.triggerSubs[m.TriggerID]
	if !ok || sub.seen.Seen(m.ReqID) {
		n.mu.Unlock()
		return
	}
	cb := sub.cb
	n.mu.Unlock()
	if cb != nil {
		cb(TriggerEvent{
			TriggerID: m.TriggerID,
			Index:     m.Index,
			Record:    m.Rec,
			From:      m.From.Addr,
		})
	}
}
