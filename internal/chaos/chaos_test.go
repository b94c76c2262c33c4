package chaos

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mind/internal/cluster"
	"mind/internal/mind"
)

// -seeds widens the generated-schedule matrix: `go test ./internal/chaos
// -seeds 20`. CI's nightly job raises it; the in-tree default stays
// small so `go test ./...` remains quick.
var (
	seedsFlag = flag.Int("seeds", 3, "number of generated chaos seeds to run")
	baseSeed  = flag.Int64("base-seed", 1, "first seed of the matrix")
)

// dumpFailing writes a failing schedule where CI can pick it up as an
// artifact (CHAOS_ARTIFACT_DIR) or, locally, into the test's temp dir.
func dumpFailing(t *testing.T, s *Schedule) string {
	t.Helper()
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		dir = t.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("artifact dir: %v", err)
	}
	data, err := s.Dump()
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("chaos-fail-%d.json", s.Seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write schedule: %v", err)
	}
	return path
}

// TestChaosSeeds is the main harness entry point: every generated
// schedule must run to completion with zero invariant violations.
func TestChaosSeeds(t *testing.T) {
	for k := 0; k < *seedsFlag; k++ {
		seed := *baseSeed + int64(k)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := Generate(seed, GenConfig{})
			res, err := Run(s, Options{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Inserts == 0 || res.Checks == 0 {
				t.Fatalf("degenerate schedule: %d inserts, %d checks", res.Inserts, res.Checks)
			}
			if len(res.Violations) > 0 {
				path := dumpFailing(t, s)
				v := res.Violations[0]
				t.Errorf("seed %d: %d violations; first: event %d [%s] %s; schedule dumped to %s",
					seed, len(res.Violations), v.Event, v.Invariant, v.Detail, path)
				for _, line := range res.Log {
					t.Log(line)
				}
			}
		})
	}
}

// smallGen keeps the determinism/round-trip runs cheap.
func smallGen(seed int64) *Schedule {
	return Generate(seed, GenConfig{Nodes: 8, Epochs: 2, Inserts: 8, Queries: 3})
}

// TestChaosDeterministic: the same seed must reproduce the run
// bit-for-bit — identical event log, invariant verdicts, and oracle
// diffs, summarized by the log digest.
func TestChaosDeterministic(t *testing.T) {
	a, err := Run(smallGen(42), Options{})
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(smallGen(42), Options{})
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("digests differ: %016x vs %016x", a.Digest, b.Digest)
	}
	if len(a.Log) != len(b.Log) {
		t.Fatalf("log lengths differ: %d vs %d", len(a.Log), len(b.Log))
	}
	for i := range a.Log {
		if a.Log[i] != b.Log[i] {
			t.Fatalf("log line %d differs:\n  %s\n  %s", i, a.Log[i], b.Log[i])
		}
	}
}

// TestScheduleRoundTrip: a schedule survives Dump/Load, and the loaded
// copy replays to the same digest as the original.
func TestScheduleRoundTrip(t *testing.T) {
	orig := smallGen(7)
	data, err := orig.Dump()
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	loaded, err := Load(data)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(loaded.Events) != len(orig.Events) {
		t.Fatalf("events lost in round trip: %d vs %d", len(loaded.Events), len(orig.Events))
	}
	a, err := Run(orig, Options{})
	if err != nil {
		t.Fatalf("original run: %v", err)
	}
	b, err := Run(loaded, Options{})
	if err != nil {
		t.Fatalf("replayed run: %v", err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("replay digest %016x != original %016x", b.Digest, a.Digest)
	}
}

// TestReplayReproducesFirstViolation: a hand-written schedule that
// checks while a partition is STILL OPEN must fail — epoch fencing
// reconciles split-brain only after the heal, so an unhealed partition
// leaves both sides covering each other's regions and the cover
// invariant genuinely broken — and replaying the dumped schedule must
// hit the same first violated invariant, the property that makes
// shrinking meaningful.
func TestReplayReproducesFirstViolation(t *testing.T) {
	s := &Schedule{
		Seed:        7,
		Nodes:       6,
		Replication: 1,
		Events: []Event{
			{Op: "insert", N: 8},
			{Op: "settle", Ms: 3000},
			{Op: "partition", Cut: 2},
			{Op: "settle", Ms: 8000}, // well past FailAfter: both sides declare the other dead
			{Op: "check", N: 2},
		},
	}
	first, err := Run(s, Options{StopOnViolation: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(first.Violations) == 0 {
		t.Fatal("expected violations from an unhealed partition, got none")
	}
	data, err := s.Dump()
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	loaded, err := Load(data)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	replay, err := Run(loaded, Options{StopOnViolation: true})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(replay.Violations) == 0 {
		t.Fatal("replay produced no violations")
	}
	f, g := first.Violations[0], replay.Violations[0]
	if f != g {
		t.Fatalf("first violation not reproduced:\n  original: event %d [%s] %s\n  replay:   event %d [%s] %s",
			f.Event, f.Invariant, f.Detail, g.Event, g.Invariant, g.Detail)
	}
	if first.Digest != replay.Digest {
		t.Fatalf("violating run not bit-reproducible: %016x vs %016x", first.Digest, replay.Digest)
	}
}

// TestStallScenario: a hand-written schedule that freezes one node for
// just under the failure-detection window while the workload keeps
// inserting. The stall defers traffic instead of dropping it, so every
// insert must ack, no takeover may fire, and the run must end with zero
// violations — the "GC-paused peer rides it out" contract.
func TestStallScenario(t *testing.T) {
	s := &Schedule{
		Seed:        9,
		Nodes:       6,
		Replication: 1,
		Events: []Event{
			{Op: "insert", N: 8},
			{Op: "settle", Ms: 3000},
			{Op: "stall", A: 2, Ms: 1200}, // < FailAfter (1800ms): no takeover
			{Op: "insert", N: 8},
			{Op: "settle", Ms: 6000},
			{Op: "check", N: 3},
		},
	}
	res, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.InsertFailures != 0 {
		t.Fatalf("%d/%d inserts failed under a sub-detection stall",
			res.InsertFailures, res.Inserts)
	}
	if len(res.Violations) > 0 {
		v := res.Violations[0]
		t.Fatalf("%d violations; first: event %d [%s] %s",
			len(res.Violations), v.Event, v.Invariant, v.Detail)
	}
	if res.IncompleteQueries != 0 {
		t.Fatalf("%d incomplete queries after the thaw", res.IncompleteQueries)
	}
}

// TestLongPartitionReconciliation: a partition that outlives the
// failure-detection window makes both sides declare the other dead and
// take over its regions — two fenced primaries per disputed code. After
// the heal, the estranged probes detect the collisions, the
// higher-epoch (lower-address on ties) side wins each dispute, and the
// losers re-insert their primaries and step down; the settled check
// must then see one exact cover and lose no acked record.
func TestLongPartitionReconciliation(t *testing.T) {
	s := &Schedule{
		Seed:        11,
		Nodes:       6,
		Replication: 1,
		Events: []Event{
			{Op: "insert", N: 10},
			{Op: "settle", Ms: 3000},
			{Op: "partition", Cut: 2},
			{Op: "settle", Ms: 6000}, // ≫ FailAfter: fenced takeovers on both sides
			{Op: "insert", N: 6},     // mid-partition traffic; cross-side inserts may time out
			{Op: "heal"},
			{Op: "settle", Ms: 24000}, // estranged probes + dispute + reinsertion
			{Op: "insert", N: 6},
			{Op: "check", N: 3},
		},
	}
	res, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Violations) > 0 {
		path := dumpFailing(t, s)
		v := res.Violations[0]
		for _, line := range res.Log {
			t.Log(line)
		}
		t.Fatalf("%d violations; first: event %d [%s] %s; schedule dumped to %s",
			len(res.Violations), v.Event, v.Invariant, v.Detail, path)
	}
}

// TestReversionScenario: two full §3.7 cycles under live traffic. Each
// reversion crosses a version boundary mid-workload, so the checks
// exercise dual-version query fan-out (rects spanning old and new
// versions) and the exact-cover and oracle invariants must stay green
// throughout.
func TestReversionScenario(t *testing.T) {
	s := &Schedule{
		Seed:        13,
		Nodes:       6,
		Replication: 1,
		Events: []Event{
			{Op: "insert", N: 10},
			{Op: "settle", Ms: 2000},
			{Op: "reversion"},
			{Op: "insert", N: 10},
			{Op: "settle", Ms: 4000},
			{Op: "check", N: 3},
			{Op: "reversion"},
			{Op: "insert", N: 10},
			{Op: "settle", Ms: 4000},
			{Op: "check", N: 3},
		},
	}
	res, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Reversions != 2 {
		t.Fatalf("expected 2 reversions, got %d", res.Reversions)
	}
	// No kills, no partitions, no loss: every differential must have run
	// in exact mode, so the summary counters were compared bit-for-bit
	// against the record path across both version flips.
	if res.AggQueries == 0 || res.AggExactChecks != res.AggQueries {
		t.Fatalf("agg differential not exact across reversions: %d/%d",
			res.AggExactChecks, res.AggQueries)
	}
	if len(res.Violations) > 0 {
		path := dumpFailing(t, s)
		v := res.Violations[0]
		for _, line := range res.Log {
			t.Log(line)
		}
		t.Fatalf("%d violations; first: event %d [%s] %s; schedule dumped to %s",
			len(res.Violations), v.Event, v.Invariant, v.Detail, path)
	}
}

// TestReversionDuringPartition is the acceptance scenario: a version
// flip crosses a partition that outlives FailAfter. Both fenced halves
// run the reversion cycle independently — two competing cut trees for
// the same version, each flooded on its own side — and traffic lands on
// both. After the heal, the membership dispute resolves via epoch
// fencing, the tree-epoch anti-entropy converges every node on the
// higher-epoch tree (reshuffling records embedded under the loser), and
// the settled check must pass exact-cover, version-agreement and the
// differential oracle.
func TestReversionDuringPartition(t *testing.T) {
	s := &Schedule{
		Seed:        17,
		Nodes:       6,
		Replication: 1,
		Events: []Event{
			{Op: "insert", N: 10},
			{Op: "settle", Ms: 3000},
			{Op: "partition", Cut: 2},
			{Op: "settle", Ms: 2500}, // > FailAfter: both sides fence and take over
			{Op: "reversion"},        // each side installs its own next-version cuts
			{Op: "insert", N: 8},
			{Op: "heal"},
			{Op: "settle", Ms: 24000},
			{Op: "insert", N: 8},
			{Op: "check", N: 3},
		},
	}
	res, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Reversions != 1 {
		t.Fatalf("expected 1 reversion, got %d", res.Reversions)
	}
	if len(res.Violations) > 0 {
		path := dumpFailing(t, s)
		v := res.Violations[0]
		for _, line := range res.Log {
			t.Log(line)
		}
		t.Fatalf("%d violations; first: event %d [%s] %s; schedule dumped to %s",
			len(res.Violations), v.Event, v.Invariant, v.Detail, path)
	}
}

// TestRetirementScenario: with RetainVersions=1, the second reversion
// (installing version 2) retires version 0 everywhere — cut tree,
// primary and replica snapshots — and the runner purges the oracle to
// match. The check's full-range queries then span retired, live and
// never-installed versions and must still reconcile.
func TestRetirementScenario(t *testing.T) {
	s := &Schedule{
		Seed:           19,
		Nodes:          5,
		Replication:    1,
		RetainVersions: 1,
		Events: []Event{
			{Op: "insert", N: 8},
			{Op: "settle", Ms: 2000},
			{Op: "reversion"},
			{Op: "insert", N: 8},
			{Op: "settle", Ms: 2000},
			{Op: "check", N: 2},
			{Op: "reversion"},
			{Op: "insert", N: 8},
			{Op: "settle", Ms: 4000},
			{Op: "check", N: 3},
		},
	}
	res, err := Run(s, Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	purged := false
	for _, line := range res.Log {
		if strings.Contains(line, "oracle purge:") {
			purged = true
		}
	}
	if !purged {
		t.Fatal("retention never purged the oracle")
	}
	// The purge drops whole versions from both stores and rollups; the
	// post-retirement checks must still reconcile aggregates exactly.
	if res.AggQueries == 0 || res.AggExactChecks != res.AggQueries {
		t.Fatalf("agg differential not exact across retirement: %d/%d",
			res.AggExactChecks, res.AggQueries)
	}
	if len(res.Violations) > 0 {
		path := dumpFailing(t, s)
		v := res.Violations[0]
		for _, line := range res.Log {
			t.Log(line)
		}
		t.Fatalf("%d violations; first: event %d [%s] %s; schedule dumped to %s",
			len(res.Violations), v.Event, v.Invariant, v.Detail, path)
	}
}

// TestGenerateValid: generated schedules are structurally valid for a
// spread of seeds — no kills of dead nodes, no restarts of live ones,
// and the live floor holds throughout.
func TestGenerateValid(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		s := Generate(seed, GenConfig{})
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dead := map[int]bool{}
		floor := s.Nodes / 2
		if floor < 3 {
			floor = 3
		}
		for i, e := range s.Events {
			switch e.Op {
			case "kill":
				if dead[e.A] {
					t.Fatalf("seed %d event %d: kill of dead node %d", seed, i, e.A)
				}
				dead[e.A] = true
				if s.Nodes-len(dead) < floor {
					t.Fatalf("seed %d event %d: live count %d below floor %d",
						seed, i, s.Nodes-len(dead), floor)
				}
			case "restart":
				if !dead[e.A] {
					t.Fatalf("seed %d event %d: restart of live node %d", seed, i, e.A)
				}
				delete(dead, e.A)
			}
		}
	}
}

// TestCheckRollupFlagsDrift: the rollup invariant passes a node whose
// rollups account for every primary record, names the node and index of
// one whose do not, and ignores dead slots.
func TestCheckRollupFlagsDrift(t *testing.T) {
	ix := func(primary int, folded uint64, delta int) []mind.IndexInfo {
		return []mind.IndexInfo{{Tag: "ix", PrimaryRecords: primary,
			Summary: mind.SummaryInfo{StaticRecords: folded, DeltaRecords: delta}}}
	}
	snaps := []cluster.NodeState{
		{Addr: "a", Joined: true, Indices: ix(300, 256, 44)},
		{Addr: "b", Joined: true, Indices: ix(300, 256, 43)},
		{Addr: "c", Dead: true},
	}
	got := CheckRollup(snaps)
	if len(got) != 1 || !strings.Contains(got[0], "b index ix") {
		t.Fatalf("CheckRollup = %q, want one violation naming node b", got)
	}
}
