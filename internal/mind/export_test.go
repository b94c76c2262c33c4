package mind

// PendingReports is the number of histogram reports this node still
// tracks for retransmission (external tests; reports have no Stats gauge).
func (n *Node) PendingReports() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.reports)
}
