package main

import (
	"fmt"
	"time"

	"mind/internal/ingest"
	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/transport"
	"mind/internal/transport/tcpnet"
)

const (
	numNodes    = 8
	nodeSeed    = 20050405
	joinTimeout = 60 * time.Second
)

// cluster is a real in-process MIND deployment on loopback TCP: eight
// nodes with library-default configuration, node 0 fronted by a
// streaming-ingest engine and listener. The benchmark sets no tuning
// knob, so a later change that makes a default faster shows up here.
type cluster struct {
	sch   *schema.Schema
	eps   []*tcpnet.Endpoint
	nodes []*mind.Node
	tr    *tracer // nil when untraced
	eng   *ingest.Engine
	ln    *ingest.Listener
}

func waitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// startCluster boots the nodes with sequential joins, creates Index-2
// over one trace day, waits until every node has it, and opens the
// ingest socket in blocking (lossless backfill) mode. Node i always runs
// mind.DefaultConfig(nodeSeed+i): the node seeds drive the join lookups
// and so the shape of the overlay, which is part of the fixed set-up —
// were it to follow -seed, hop counts and per-node load would differ
// between runs by more than any change under test.
func startCluster(tr *tracer) (_ *cluster, err error) {
	c := &cluster{sch: schema.Index2(daySec), tr: tr}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	for i := 0; i < numNodes; i++ {
		ep, err := tcpnet.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		c.eps = append(c.eps, ep)
		var tep transport.Endpoint = ep
		if tr != nil {
			tep = &tracedEndpoint{Endpoint: ep, tr: tr, node: i}
		}
		node := mind.NewNode(tep, transport.RealClock{}, mind.DefaultConfig(nodeSeed+int64(i)))
		c.nodes = append(c.nodes, node)
		if i == 0 {
			node.Bootstrap()
			continue
		}
		node.Join(c.eps[0].Addr())
		if err := waitFor(fmt.Sprintf("node %d to join", i), joinTimeout, node.Joined); err != nil {
			return nil, err
		}
	}
	if err := c.nodes[0].CreateIndex(c.sch, nil); err != nil {
		return nil, err
	}
	err = waitFor("index flood", joinTimeout, func() bool {
		for _, n := range c.nodes {
			if !n.HasIndex(c.sch.Tag) {
				return false
			}
		}
		return true
	})
	if err == nil {
		err = c.openIngest(true)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// openIngest (re)opens node 0's ingest engine and listener with the
// given admission mode, wired the way cmd/mindnode wires them. Backfill
// runs in Block mode; a workload whose live stream uses the default Drop
// mode reopens the socket after its preload.
func (c *cluster) openIngest(block bool) error {
	c.closeIngest()
	var ins ingest.BatchInserter = c.nodes[0]
	if c.tr != nil {
		ins = &tracedInserter{ins: ins, tr: c.tr}
	}
	c.eng = ingest.New(ins, ingest.Config{
		Block:       block,
		SelfAddr:    c.nodes[0].Addr(),
		NodePending: c.nodes[0].PendingInserts,
	})
	ln, err := ingest.Listen("127.0.0.1:0", c.eng, ingest.ListenerConfig{})
	if err != nil {
		c.eng.Close()
		c.eng = nil
		return err
	}
	c.ln = ln
	return nil
}

func (c *cluster) closeIngest() {
	if c.ln != nil {
		c.ln.Close()
		c.ln = nil
	}
	if c.eng != nil {
		c.eng.Close()
		c.eng = nil
	}
}

func (c *cluster) close() {
	c.closeIngest()
	for _, n := range c.nodes {
		n.Close()
	}
	for _, ep := range c.eps {
		ep.Close()
	}
}

// stored sums primary and replica record counts over all nodes, and
// returns each node's primary count.
func (c *cluster) stored() (primary, replica int, perNode []int) {
	for _, n := range c.nodes {
		p := n.StoredRecords(c.sch.Tag)
		perNode = append(perNode, p)
		primary += p
		replica += n.ReplicaRecords(c.sch.Tag)
	}
	return primary, replica, perNode
}

// counters is the sum over all nodes of the public Stats() snapshots the
// per-layer counter metrics are deltas of.
type counters struct {
	forwarded, retransmits, dedupHits, shed uint64
	batches, batchedMsgs                    uint64
	drops, reconnects, writeTimeouts        uint64
	ingest                                  ingest.Stats
	folds                                   uint64
	summaryDelta                            int
}

func (c *cluster) counters() counters {
	var out counters
	for i, n := range c.nodes {
		st := n.Stats()
		out.forwarded += st.Forwarded
		out.retransmits += st.Retransmits
		out.dedupHits += st.DedupHits
		out.shed += st.ShedInserts + st.ShedQueries + st.ShedGossip
		out.batches += st.BatchesSent
		out.batchedMsgs += st.BatchedMsgs
		for _, p := range c.eps[i].NetStats().Peers {
			out.drops += p.DropsQueueFull + p.DropsBackoff + p.DropsWrite
			out.reconnects += p.Reconnects
			out.writeTimeouts += p.WriteTimeouts
		}
		for _, info := range n.IndexInfos() {
			out.folds += info.Summary.Folds
			out.summaryDelta += info.Summary.DeltaRecords
		}
	}
	if c.eng != nil {
		out.ingest = c.eng.Stats()
	}
	return out
}
