package mind

import (
	"fmt"

	"mind/internal/bitstr"
	"mind/internal/embed"
	"mind/internal/histogram"
	"mind/internal/schema"
	"mind/internal/transport"
	"mind/internal/wire"
)

// The §3.7 load-balancing loop, which the paper's prototype computed
// off-line: once per version period, every node reports an approximate
// multi-dimensional histogram of its local data distribution to a
// designated node (the owner of the all-zero code); the designated node
// merges the reports, computes balanced cuts for the *next* version, and
// floods them. Historical data is never migrated — the new cuts only
// shape where the next version's data lands.

// designatedTarget is the code the histogram reports route toward: deep
// in the all-zero corner, so the owner of code 0^k receives them.
//
// There is no separate fallback-aggregator election: if the designated
// node dies mid-collection, the overlay's takeover machinery hands the
// all-zero region to its sibling, and the originators' retransmissions
// re-route — greedy routing always resolves designatedTarget to the
// CURRENT owner. Routing plus retransmission IS the deterministic
// fallback aggregator.
var designatedTarget = bitstr.New(0, 24)

type histCollect struct {
	tag     string
	day     uint32
	merged  *histogram.Hist
	reports int
	// reported dedups per reporting node: a retransmitted report (its
	// ack was the lost message) must not double-count into the merge.
	reported map[string]bool
	timer    transport.Timer
}

// histReportOp is originator-side tracking for one HistReport: the
// report retransmits on the reliable layer's backoff schedule until the
// designated node acks, so a report (or its aggregator) lost mid-cycle
// still reaches whoever owns the all-zero region by then.
type histReportOp struct {
	msg   *wire.HistReport
	retry retrySchedule
}

// LocalHistogram builds the k-granularity histogram of one version of an
// index's primary data, expressed as the PREDICTED distribution of the
// NEXT version: the §3.7 stationarity assumption says tomorrow's traffic
// looks like today's shifted one day, so each record's timestamp is
// projected into the next version period. Balanced cuts computed from
// this histogram then land inside the next day's actual time range —
// without the projection, every time cut would fall outside it and the
// timestamp dimension would stop contributing to balance.
func (n *Node) LocalHistogram(tag string, day uint32, k int) (*histogram.Hist, error) {
	ix, ok := n.getIndex(tag)
	if !ok {
		return nil, fmt.Errorf("mind: unknown index %q", tag)
	}
	h, err := histogram.New(k, ix.sch.Bounds())
	if err != nil {
		return nil, err
	}
	vs := n.cfg.VersionSeconds
	if ix.primary.Has(day) {
		var scratch []uint64 // AddPoint copies nothing out of p, so one buffer serves the scan
		ix.primary.Version(day).All(func(rec schema.Record) bool {
			scratch = rec.PointInto(ix.sch, scratch)
			if ix.timeAttr >= 0 && vs > 0 {
				shifted := scratch[ix.timeAttr]%vs + uint64(day+1)*vs
				if b := ix.sch.Attrs[ix.timeAttr].Bound(); shifted > b {
					shifted = b
				}
				scratch[ix.timeAttr] = shifted
			}
			h.AddPoint(scratch)
			return true
		})
	}
	return h, nil
}

// ReportHistogram computes this node's local histogram for the given
// version and routes it to the designated aggregation node. The
// experiment harness (or a daily timer in a deployment) calls this on
// every node at the end of a version period. With the reliable layer
// on, the report is tracked and retransmitted until acked — and each
// retransmission re-resolves the designated target, so a coordinator
// death mid-collection just redirects the report to the takeover node.
func (n *Node) ReportHistogram(tag string, day uint32, k int) error {
	h, err := n.LocalHistogram(tag, day, k)
	if err != nil {
		return err
	}
	msg := &wire.HistReport{
		Index:    tag,
		Day:      day,
		NodeAddr: n.ep.Addr(),
		Hist:     h.Marshal(),
	}
	if n.retriesEnabled() {
		msg.ReqID = n.nextReq()
		op := &histReportOp{msg: msg}
		reqID := msg.ReqID
		n.reqTracked.Add(1)
		n.mu.Lock()
		n.reports[reqID] = op
		op.retry.armLocked(n, func() { n.resendReport(reqID) })
		n.mu.Unlock()
	}
	n.handleHistReport(n.ep.Addr(), msg)
	return nil
}

// resendReport retransmits an un-acked histogram report. The re-dispatch
// goes through handleHistReport, which re-resolves ownership of the
// designated target from the CURRENT overlay view — after a coordinator
// death and takeover, the retransmission lands at the new owner.
func (n *Node) resendReport(reqID uint64) {
	n.mu.Lock()
	op, ok := n.reports[reqID]
	if !ok {
		n.mu.Unlock()
		return
	}
	if !op.retry.advanceLocked(n) {
		// Exhausted: the cycle proceeds with the reports that arrived
		// (the merge is approximate anyway); drop the op.
		delete(n.reports, reqID)
		n.mu.Unlock()
		return
	}
	n.retransmits.Add(1)
	msg := *op.msg
	msg.Hops = 0
	n.mu.Unlock()

	n.handleHistReport(n.ep.Addr(), &msg)
}

func (n *Node) handleHistReportAck(m *wire.HistReportAck) {
	n.acksReceived.Add(1)
	n.mu.Lock()
	if op, ok := n.reports[m.ReqID]; ok {
		delete(n.reports, m.ReqID)
		op.retry.stop()
	}
	n.mu.Unlock()
}

func (n *Node) handleHistReport(from string, m *wire.HistReport) {
	if !n.ov.Joined() {
		return
	}
	if !n.ov.Owns(designatedTarget) {
		fwd := *m
		fwd.Hops++
		if next, ok := n.ov.NextHop(designatedTarget); ok {
			n.send(next, &fwd)
		} else {
			n.ov.RingRecover(designatedTarget, wire.Encode(&fwd))
		}
		return
	}
	// Designated node: ack the reporter, then merge (once per reporter —
	// a duplicate means our previous ack was lost, so re-ack only).
	ackReporter := func() {
		if m.ReqID == 0 {
			return
		}
		ack := &wire.HistReportAck{ReqID: m.ReqID}
		if m.NodeAddr == n.ep.Addr() {
			n.handleHistReportAck(ack)
		} else {
			n.send(m.NodeAddr, ack)
		}
	}
	h, err := histogram.Unmarshal(m.Hist)
	if err != nil {
		return
	}
	key := fmt.Sprintf("%s/%d", m.Index, m.Day)
	n.mu.Lock()
	c, ok := n.collect[key]
	if !ok {
		c = &histCollect{tag: m.Index, day: m.Day, merged: h, reports: 1,
			reported: map[string]bool{m.NodeAddr: true}}
		n.collect[key] = c
		c.timer = n.clock.AfterFunc(n.cfg.HistCollectWait, func() { n.finalizeRebalance(key) })
		n.mu.Unlock()
		ackReporter()
		return
	}
	if c.reported[m.NodeAddr] {
		n.dedupHits.Add(1)
		n.mu.Unlock()
		ackReporter()
		return
	}
	c.reported[m.NodeAddr] = true
	if err := c.merged.Merge(h); err == nil {
		c.reports++
	}
	n.mu.Unlock()
	ackReporter()
}

// finalizeRebalance computes the next version's balanced cuts from the
// merged histogram and floods them.
func (n *Node) finalizeRebalance(key string) {
	n.mu.Lock()
	c, ok := n.collect[key]
	if !ok {
		n.mu.Unlock()
		return
	}
	delete(n.collect, key)
	depth := n.cfg.BalancedCutDepth
	merged := c.merged
	n.mu.Unlock()

	tree, err := embed.Balanced(merged, depth)
	if err != nil {
		return
	}
	n.InstallCuts(c.tag, c.day+1, tree)
}

// InstallCuts installs a cut tree for an index version locally and
// floods it to the overlay. Exposed so experiments can also install
// off-line-computed cuts, exactly as the paper's evaluation did. The
// flooded install carries an epoch derived from this node's current
// view of the version (counter + content signature), so receivers — and
// both halves of a healed partition that each ran the reversion —
// converge on one deterministic tree per version.
func (n *Node) InstallCuts(tag string, version uint32, tree *embed.Tree) {
	ix, ok := n.getIndex(tag)
	if !ok || tree.Dims() != ix.sch.IndexDims {
		return
	}
	cur := ix.epochOf(version)
	if cur&retiredEpochBit != 0 {
		return // version retired: never resurrect it
	}
	treeBytes := tree.Marshal()
	epoch := nextTreeEpoch(cur, treeBytes)
	opID := n.nextReq()
	n.markOp(opID)
	n.applyInstall(ix, version, tree, epoch)
	n.flood(&wire.HistInstall{OpID: opID, Index: tag, Version: version, Tree: treeBytes, Epoch: epoch})
}

func (n *Node) handleHistInstall(m *wire.HistInstall) {
	if !n.markOp(m.OpID) {
		return
	}
	tree, err := embed.Unmarshal(m.Tree)
	if err == nil {
		if ix, ok := n.getIndex(m.Index); ok && tree.Dims() == ix.sch.IndexDims {
			epoch := m.Epoch
			if epoch == 0 {
				// Pre-epoch installer (tests driving the raw flood): derive
				// one locally so ordering still applies.
				epoch = nextTreeEpoch(ix.epochOf(m.Version), m.Tree)
			}
			n.applyInstall(ix, m.Version, tree, epoch)
		}
	}
	// Re-flood even a refused install: the OpID dedup is what stops the
	// flood, and neighbors may not have seen this epoch yet.
	n.flood(m)
}

// CutTree returns the embedding in effect for an index version (tests
// and experiments).
func (n *Node) CutTree(tag string, version uint32) (*embed.Tree, error) {
	ix, ok := n.getIndex(tag)
	if !ok {
		return nil, fmt.Errorf("mind: unknown index %q", tag)
	}
	return ix.tree(version), nil
}
