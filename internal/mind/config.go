package mind

import (
	"time"

	"mind/internal/hypercube"
)

// Config tunes a MIND node.
type Config struct {
	// Overlay is the hypercube protocol configuration.
	Overlay hypercube.Config
	// Seed drives node-local randomness (join sampling, request ids).
	Seed int64

	// Replication is the number of replicas per stored record, placed at
	// the hypercube neighbors sharing the longest code prefixes (§3.8):
	// 0 disables replication, ReplicateAll replicates at one contact per
	// neighbor level ("full replication" in Fig 16).
	Replication int

	// InsertDepthSlack is how many bits past the local code length the
	// insertion target code is computed to; receivers extend it further
	// when their codes are deeper.
	InsertDepthSlack int

	// InsertTimeout bounds how long an originator waits for an
	// insertion ack before reporting failure.
	InsertTimeout time.Duration
	// QueryTimeout bounds how long an originator waits for complete
	// query coverage before returning partial results.
	QueryTimeout time.Duration

	// RetryBase is the delay before the first retransmission of an
	// un-acked insert or un-covered query region; each further attempt
	// doubles it (plus deterministic jitter from the node's seeded RNG)
	// up to RetryMax.
	RetryBase time.Duration
	// RetryMax caps the backoff between retransmissions.
	RetryMax time.Duration
	// MaxRetries is how many retransmissions an originator sends before
	// giving up and feeding the suspected first hop to the overlay's
	// failure machinery. With 0 nothing is retransmitted: the first
	// check gives up at once and the operation waits out its timeout.
	MaxRetries int

	// VersionSeconds is the length of one index version period (the
	// paper versions indices daily: 86400).
	VersionSeconds uint64

	// TransferOnSplit, when set, moves the joiner-region records from
	// the split target to the joiner instead of using a history pointer.
	// The paper avoids data movement; this mode exists as an ablation.
	TransferOnSplit bool

	// ClientRateLimit enables per-client token-bucket admission control
	// on inbound client RPCs (ClientInsert / ClientQuery / index
	// control), in requests per second per client address. A refused
	// request is shed explicitly — ClientAck{Shed:true} or
	// ClientQueryResp{Shed:true} — without recording its request id, so
	// a later retry is re-admitted. 0 disables (the default: lab runs
	// and the chaos harness see no rate limit).
	ClientRateLimit float64
	// ClientRateBurst is the bucket capacity (and a new client's opening
	// balance); 0 defaults to ClientRateLimit, and to 1 below one
	// request per second.
	ClientRateBurst int
	// GossipRateLimit enables per-peer admission control on flood and
	// control gossip (CreateIndex, DropIndex, HistInstall,
	// RetireVersion, RegionRecall), in messages per second per peer.
	// Refused floods are counted and dropped before the dedup mark, so
	// the operation still propagates via another contact or a later
	// arrival. A peer's bucket holds GossipRateLimit messages, and at
	// least one. 0 disables.
	GossipRateLimit float64

	// HistCollectWait is how long the designated aggregation node waits
	// after the first histogram report before computing balanced cuts.
	HistCollectWait time.Duration
	// RetainVersions bounds the dual-version query window: when a cut
	// tree installs for version V, every node locally retires versions
	// more than RetainVersions behind V — cut tree, primary snapshot and
	// replica snapshot — so storage stops growing across reversions.
	// 0 disables auto-retirement (versions live until an explicit
	// RetireVersion).
	RetainVersions int
}

// ReplicateAll selects full replication (one replica per neighbor level).
const ReplicateAll = -1

const (
	// MaxPendingInserts is the node's ceiling on in-flight inserts
	// (PendingInserts, repair re-inserts included): a ClientInsert
	// arriving at it is shed, and the ingest engine refuses records at it.
	MaxPendingInserts = 1 << 16
	// BalancedCutDepth is the explicit depth of the balanced cut trees a
	// reversion computes (§3.7).
	BalancedCutDepth = 10
)

// DefaultConfig returns production-shaped defaults.
func DefaultConfig(seed int64) Config {
	return Config{
		Overlay:          hypercube.DefaultConfig(),
		Seed:             seed,
		Replication:      1,
		InsertDepthSlack: 16,
		InsertTimeout:    30 * time.Second,
		QueryTimeout:     30 * time.Second,
		RetryBase:        time.Second,
		RetryMax:         8 * time.Second,
		MaxRetries:       4,
		VersionSeconds:   86400,
		HistCollectWait:  5 * time.Second,
	}
}
