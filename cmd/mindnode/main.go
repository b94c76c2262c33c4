// Command mindnode runs one MIND node over real TCP. The first node of
// a deployment bootstraps the overlay; every further node joins through
// any running node:
//
//	mindnode -listen 127.0.0.1:7001                       # bootstrap
//	mindnode -listen 127.0.0.1:7002 -join 127.0.0.1:7001  # join
//
// Clients (cmd/mindctl, or monitors embedding the client protocol) can
// create indices, insert records and issue range queries against any
// node's address. With -ingest-listen the node additionally accepts
// line-rate streaming ingest: raw flow frames on a dedicated port, fed
// through the sharded ingest engine into the same insert path
// (cmd/mindload -stream drives it). With -http-listen the node serves
// the operator surface (internal/ops): /healthz, /readyz, /stats,
// /peers, /indices.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"mind/internal/ingest"
	"mind/internal/mind"
	"mind/internal/ops"
	"mind/internal/schema"
	"mind/internal/transport"
	"mind/internal/transport/tcpnet"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:0", "TCP address to listen on")
		join        = flag.String("join", "", "address of an existing node to join through (empty = bootstrap)")
		replication = flag.Int("replication", 1, "replicas per record (-1 = full)")
		seed        = flag.Int64("seed", time.Now().UnixNano(), "randomness seed")
		quiet       = flag.Bool("quiet", false, "suppress periodic status lines")

		ingestListen = flag.String("ingest-listen", "", "TCP address for streaming flow-frame ingest (empty = disabled)")
		ingestShards = flag.Int("ingest-shards", 0, "ingest worker/ring pairs (0 = GOMAXPROCS)")
		ingestRing   = flag.Int("ingest-ring", 0, "per-shard ingest ring capacity (0 = 8192)")
		ingestBlock  = flag.Bool("ingest-block", false, "block producers when ingest rings fill instead of dropping")
		index2       = flag.Bool("index2", false, "create the paper's Index-2 at startup (bootstrap node only)")

		httpListen = flag.String("http-listen", "", "HTTP address for the operator surface: /healthz /readyz /stats /peers /indices (empty = disabled)")

		dialTimeout  = flag.Duration("dial-timeout", 0, "outbound connection attempt bound (0 = 5s default)")
		writeTimeout = flag.Duration("write-timeout", 0, "per-frame write deadline; a peer stalled past this is evicted (0 = 10s default)")
		sendQueue    = flag.Int("send-queue", 0, "per-peer bounded send-queue length (0 = 512 default)")

		clientRate    = flag.Float64("client-rate-limit", 0, "per-client admission rate on client RPCs, req/s (0 = unlimited)")
		clientBurst   = flag.Int("client-rate-burst", 0, "per-client admission burst (0 = rate)")
		gossipRate    = flag.Float64("gossip-rate-limit", 0, "per-peer admission rate on flood gossip, msg/s (0 = unlimited)")
		maxPendingOps = flag.Int("max-pending-ops", 0, "shed client inserts past this many in-flight tracked inserts (0 = unlimited)")
	)
	flag.Parse()

	ep, err := tcpnet.ListenConfig(*listen, tcpnet.Config{
		DialTimeout:  *dialTimeout,
		WriteTimeout: *writeTimeout,
		SendQueue:    *sendQueue,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := mind.DefaultConfig(*seed)
	cfg.Replication = *replication
	cfg.ClientRateLimit = *clientRate
	cfg.ClientRateBurst = *clientBurst
	cfg.GossipRateLimit = *gossipRate
	cfg.MaxPendingOps = *maxPendingOps
	node := mind.NewNode(ep, transport.RealClock{}, cfg)

	if *join == "" {
		node.Bootstrap()
		fmt.Printf("mindnode: bootstrapped overlay at %s\n", ep.Addr())
		if *index2 {
			horizon := uint64(time.Now().Unix()) + 7*86400
			if err := node.CreateIndex(schema.Index2(horizon), nil); err != nil {
				fmt.Fprintf(os.Stderr, "mindnode: create index2: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("mindnode: created index %q (horizon %d)\n", schema.Index2(horizon).Tag, horizon)
		}
	} else {
		node.Join(*join)
		deadline := time.Now().Add(30 * time.Second)
		for !node.Joined() {
			if time.Now().After(deadline) {
				fmt.Fprintf(os.Stderr, "mindnode: join via %s timed out\n", *join)
				os.Exit(1)
			}
			time.Sleep(50 * time.Millisecond)
		}
		fmt.Printf("mindnode: joined at %s with code %s\n", ep.Addr(), node.Code())
	}

	// Streaming ingest: a sharded engine in front of the node's
	// InsertBatch path, plus the flow-frame listener on its own port.
	var eng *ingest.Engine
	var ingestLn *ingest.Listener
	if *ingestListen != "" {
		eng = ingest.New(node, ingest.Config{
			Shards:      *ingestShards,
			RingSize:    *ingestRing,
			Block:       *ingestBlock,
			SelfAddr:    node.Addr(),
			NodePending: node.PendingInserts,
		})
		ingestLn, err = ingest.Listen(*ingestListen, eng, ingest.ListenerConfig{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("mindnode: streaming ingest on %s (%d shards)\n", ingestLn.Addr(), runtime.GOMAXPROCS(0))
	}

	// Operator surface: health/readiness/stats/introspection over HTTP.
	var opsSrv *ops.Server
	if *httpListen != "" {
		opsSrv, err = ops.Serve(*httpListen, node, ep, eng)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("mindnode: operator surface on http://%s\n", opsSrv.Addr())
	}

	shutdown := func() {
		fmt.Println("mindnode: shutting down")
		if opsSrv != nil {
			opsSrv.Close()
		}
		if ingestLn != nil {
			ingestLn.Close()
		}
		if eng != nil {
			eng.Close()
		}
		node.Close()
		ep.Close()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(10 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-sig:
			shutdown()
			return
		case <-tick.C:
			if !*quiet {
				st := node.Stats()
				line := fmt.Sprintf("mindnode: code=%s indices=%v stored=%d forwarded=%d replicated=%d",
					node.Code(), node.Indices(), st.Stored, st.Forwarded, st.Replicated)
				if eng != nil {
					is := eng.Stats()
					line += fmt.Sprintf(" ingest[recv=%d acked=%d dropped=%d pending=%d bp=%v]",
						is.Received, is.Acked, is.DroppedRing+is.DroppedPending, is.Pending, is.Backpressured)
				}
				fmt.Println(line)
			}
		}
	}
}
