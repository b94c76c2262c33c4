package ingest

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"mind/internal/baseline"
	"mind/internal/cluster"
	"mind/internal/mind"
	"mind/internal/schema"
	"mind/internal/transport/simnet"
	"mind/internal/wire"
)

// recKey renders a record for multiset comparison.
func recKey(r schema.Record) string { return fmt.Sprint([]uint64(r)) }

// TestIngestOverloadOracle is the chaos-style differential check for
// streaming ingest: drive a simnet cluster's node 0 through the full
// frame-parse path at deliberate overload (tiny rings, drop mode), and
// assert that the distributed index afterwards matches a local oracle
// exactly — every acked record present, nothing else, with the records
// shed by admission control accounted for by the drop counters.
func TestIngestOverloadOracle(t *testing.T) {
	seed := int64(7)
	nodeCfg := mind.DefaultConfig(seed)
	nodeCfg.InsertTimeout = 20 * time.Second
	nodeCfg.QueryTimeout = 20 * time.Second
	c, err := cluster.New(cluster.Options{
		N:    8,
		Seed: seed,
		Sim:  simnet.Config{Seed: seed, DefaultLatency: 5 * time.Millisecond},
		Node: nodeCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.Index2(1 << 20)
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}

	node := c.Nodes[0]
	oracle := baseline.NewOracle(sch)
	var failed int
	eng := New(node, Config{
		Shards:      2,
		RingSize:    32,   // tiny on purpose: overload must shed
		Synchronous: true, // deterministic under the simulator
		SelfAddr:    node.Addr(),
		NodePending: node.PendingInserts,
		OnResult: func(tag string, rec schema.Record, res mind.InsertResult) {
			if res.OK {
				// The record buffer recycles right after this call: clone.
				oracle.Insert(append(schema.Record(nil), rec...))
			} else {
				failed++
			}
		},
	})
	defer eng.Close()

	// Burst frames far larger than the total ring capacity, pumping and
	// settling between bursts so accepted records flow through the full
	// insert path (routing, replication, acks) before the next wave.
	rng := rand.New(rand.NewSource(42))
	buf := []byte(nil)
	recs := make([][]uint64, 256)
	for i := range recs {
		recs[i] = make([]uint64, 5)
	}
	const rounds = 12
	for round := 0; round < rounds; round++ {
		for i := range recs {
			recs[i][0] = rng.Uint64() & 0xffffffff         // dest_prefix
			recs[i][1] = rng.Uint64() % (1 << 20)          // timestamp
			recs[i][2] = rng.Uint64() % schema.OctetsBound // octets
			recs[i][3] = rng.Uint64() & 0xffffffff         // source_prefix
			recs[i][4] = uint64(rng.Intn(8))               // node
		}
		buf = wire.AppendFlowFrame(buf[:0], uint64(round), sch.Tag, 5, recs)
		f, err := wire.ParseFlowFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		eng.IngestFrame(&f)
		for eng.Pump() > 0 {
			c.Net.RunFor(50_000_000) // 50ms virtual: let acks settle
		}
	}
	// Drain anything still in flight.
	ok := c.Net.RunUntil(func() bool { return eng.Stats().Pending == 0 }, 2_000_000)
	if !ok {
		t.Fatalf("in-flight records never settled: %+v", eng.Stats())
	}

	st := eng.Stats()
	const offered = rounds * 256
	if st.Received != offered {
		t.Fatalf("received %d, want %d", st.Received, offered)
	}
	dropped := st.DroppedRing + st.DroppedPending
	if dropped == 0 {
		t.Fatalf("overload run shed nothing; rings were never full (stats %+v)", st)
	}
	// Conservation: every offered record is acked, failed, or counted
	// as an admission drop.
	if st.Accepted != st.Acked+st.Failed {
		t.Fatalf("accepted %d != acked %d + failed %d", st.Accepted, st.Acked, st.Failed)
	}
	if st.Received != st.Accepted+dropped {
		t.Fatalf("received %d != accepted %d + dropped %d", st.Received, st.Accepted, dropped)
	}
	if st.Failed != uint64(failed) {
		t.Fatalf("stats failed %d != OnResult failures %d", st.Failed, failed)
	}
	if st.Failed != 0 {
		t.Fatalf("healthy cluster failed %d inserts", st.Failed)
	}
	if oracle.Len() != int(st.Acked) {
		t.Fatalf("oracle holds %d records, acked %d", oracle.Len(), st.Acked)
	}

	// Differential: a full-space query from another node must return
	// exactly the acked multiset — the records admission control shed
	// must be the ONLY ones missing.
	res, _, err := c.QueryWait(3, sch.Tag, sch.FullRect())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("query incomplete")
	}
	want := oracle.Query(sch.FullRect())
	if len(res.Records) != len(want) {
		t.Fatalf("query returned %d records, oracle has %d", len(res.Records), len(want))
	}
	got := make([]string, len(res.Records))
	for i, r := range res.Records {
		got[i] = recKey(r)
	}
	exp := make([]string, len(want))
	for i, r := range want {
		exp[i] = recKey(r)
	}
	sort.Strings(got)
	sort.Strings(exp)
	for i := range got {
		if got[i] != exp[i] {
			t.Fatalf("record %d differs:\n  index:  %s\n  oracle: %s", i, got[i], exp[i])
		}
	}
}
