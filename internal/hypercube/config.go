package hypercube

import "time"

// Config tunes the overlay protocol timers and limits.
type Config struct {
	// MaxContactsPerLevel caps how many contacts a node remembers per
	// neighbor level (dimension). More contacts improve routing
	// resilience at the cost of heartbeat traffic.
	MaxContactsPerLevel int
	// HeartbeatInterval is the period between heartbeats to contacts.
	HeartbeatInterval time.Duration
	// FailAfter declares a contact dead when it has not been heard from
	// for this long. The paper's prototype retries re-connection several
	// times before repairing the overlay (§3.8); FailAfter plays that
	// role here.
	FailAfter time.Duration
	// JoinTimeout bounds each phase of the join protocol before a retry.
	JoinTimeout time.Duration
	// JoinRetryBackoff is the delay before a rejected or timed-out join
	// attempt restarts from the lookup phase.
	JoinRetryBackoff time.Duration
	// PrepareTimeout bounds how long a split target waits for neighbor
	// approvals before aborting.
	PrepareTimeout time.Duration
}

// lookupDepth is the random-code depth used to sample a node during join
// lookups and level-repair lookups.
const lookupDepth = 24

// DefaultConfig returns timers suitable for both the simulated WAN and a
// real deployment.
func DefaultConfig() Config {
	return Config{
		MaxContactsPerLevel: 3,
		HeartbeatInterval:   2 * time.Second,
		FailAfter:           7 * time.Second,
		JoinTimeout:         3 * time.Second,
		JoinRetryBackoff:    500 * time.Millisecond,
		PrepareTimeout:      2 * time.Second,
	}
}
