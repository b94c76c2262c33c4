package mind

import "mind/internal/transport"

// PendingReports is the number of histogram reports this node still
// tracks for retransmission (external tests; reports have no Stats gauge).
func (n *Node) PendingReports() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.reports)
}

// SetPendingInserts overwrites the in-flight insert gauge that both
// admission paths read, so a test can stand a node at its ceiling
// without that many inserts in flight (external tests).
func (n *Node) SetPendingInserts(v int) { n.pendingGauge.Store(int64(v)) }

// TapSends hands tap every frame the node sends from now on, before the
// transport takes it (external tests). Set it before the node sends
// anything the test counts, on a single-threaded transport.
func (n *Node) TapSends(tap func(to string, frame []byte)) {
	n.ep = sendTap{n.ep, tap}
}

// sendTap is an endpoint whose sends a tap sees first.
type sendTap struct {
	transport.Endpoint
	tap func(to string, frame []byte)
}

func (e sendTap) Send(to string, frame []byte) error {
	e.tap(to, frame)
	return e.Endpoint.Send(to, frame)
}
