package mind

import "mind/internal/transport"

// PendingReports is the number of histogram reports this node still
// tracks for retransmission (external tests; reports have no Stats gauge).
func (n *Node) PendingReports() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.reports)
}

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
