package mind_test

import (
	"math/rand"
	"testing"
	"time"

	"mind/internal/cluster"
	"mind/internal/schema"
	"mind/internal/store"
)

// aggOracle recomputes the exact aggregate of recs over rect: count,
// per-attribute sums (wrapping), and the exact per-key counts of rec[0].
func aggOracle(recs []schema.Record, rect schema.Rect, arity int) (uint64, []uint64, map[uint64]uint64) {
	sch := testSchema()
	var count uint64
	sums := make([]uint64, arity)
	keys := make(map[uint64]uint64)
	for _, rec := range recs {
		if !rect.ContainsRecord(sch, rec) {
			continue
		}
		count++
		for i := range sums {
			if i < len(rec) {
				sums[i] += rec[i]
			}
		}
		keys[rec[0]]++
	}
	return count, sums, keys
}

func TestAggSingleNode(t *testing.T) {
	c := mkCluster(t, 1, 31, nil)
	if err := c.CreateIndex(testSchema()); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(32))
	var all []schema.Record
	for i := 0; i < 100; i++ {
		rec := randRec(r)
		res, _, err := c.InsertWait(0, "test-index", rec)
		if err != nil || !res.OK {
			t.Fatalf("insert %d: %v %+v", i, err, res)
		}
		all = append(all, rec)
	}
	rects := []schema.Rect{
		fullRect(),
		{Lo: []uint64{0, 0, 0}, Hi: []uint64{5000, 86400, 9999}},
		{Lo: []uint64{2000, 1000, 3000}, Hi: []uint64{8000, 50000, 7000}},
		{Lo: []uint64{9990, 0, 9990}, Hi: []uint64{9999, 86400, 9999}}, // likely empty
	}
	for ri, rect := range rects {
		ar, _, err := c.AggWait(0, "test-index", rect, 0)
		if err != nil {
			t.Fatalf("rect %d: %v", ri, err)
		}
		if !ar.Complete {
			t.Fatalf("rect %d: incomplete: %+v", ri, ar)
		}
		count, sums, keys := aggOracle(all, rect, 4)
		if ar.Count != count {
			t.Fatalf("rect %d: count %d, want %d", ri, ar.Count, count)
		}
		for i, s := range sums {
			if ar.Sums[i] != s {
				t.Fatalf("rect %d: sum[%d] %d, want %d", ri, i, ar.Sums[i], s)
			}
		}
		// Sketch error contract: every reported entry's true count lies in
		// [Count-Err, Count], and any absent key's count is at most Floor.
		reported := make(map[uint64]bool)
		for _, e := range ar.TopK {
			reported[e.Key] = true
			truth := keys[e.Key]
			if truth > e.Count || truth < e.Count-e.Err {
				t.Fatalf("rect %d: key %d true %d outside [%d,%d]",
					ri, e.Key, truth, e.Count-e.Err, e.Count)
			}
		}
		for k, truth := range keys {
			if !reported[k] && truth > ar.Floor {
				t.Fatalf("rect %d: key %d count %d missing with floor %d",
					ri, k, truth, ar.Floor)
			}
		}
	}
}

func TestAggMultiNodeMatchesExact(t *testing.T) {
	c := mkCluster(t, 16, 33, nil)
	if err := c.CreateIndex(testSchema()); err != nil {
		t.Fatal(err)
	}
	c.Settle(3 * time.Second)
	r := rand.New(rand.NewSource(34))
	for i := 0; i < 300; i++ {
		res, _, err := c.InsertWait(i%16, "test-index", randRec(r))
		if err != nil || !res.OK {
			t.Fatalf("insert %d: %v %+v", i, err, res)
		}
	}
	for qi := 0; qi < 12; qi++ {
		lo0, lo2 := r.Uint64()%9000, r.Uint64()%9000
		rect := schema.Rect{
			Lo: []uint64{lo0, 0, lo2},
			Hi: []uint64{lo0 + 1000 + r.Uint64()%3000, 86400, lo2 + 1000 + r.Uint64()%3000},
		}
		qr, _, err := c.QueryWait(qi%16, "test-index", rect)
		if err != nil || !qr.Complete {
			t.Fatalf("exact query %d: %v %+v", qi, err, qr)
		}
		ar, _, err := c.AggWait((qi+5)%16, "test-index", rect, 0)
		if err != nil || !ar.Complete {
			t.Fatalf("agg query %d: %v %+v", qi, err, ar)
		}
		count, sums, _ := aggOracle(qr.Records, rect, 4)
		if ar.Count != count {
			t.Fatalf("query %d: agg count %d, exact %d", qi, ar.Count, count)
		}
		for i, s := range sums {
			if ar.Sums[i] != s {
				t.Fatalf("query %d: agg sum[%d] %d, exact %d", qi, i, ar.Sums[i], s)
			}
		}
		if ar.Responders == 0 {
			t.Fatalf("query %d: no responders", qi)
		}
	}
}

func TestAggHeavyHitters(t *testing.T) {
	c := mkCluster(t, 8, 35, nil)
	if err := c.CreateIndex(testSchema()); err != nil {
		t.Fatal(err)
	}
	c.Settle(3 * time.Second)
	r := rand.New(rand.NewSource(36))
	// One whale key dominating a uniform background: the space-saving
	// sketch must never lose it, whatever the merge order.
	const whale = uint64(7777)
	whaleCount := uint64(0)
	for i := 0; i < 240; i++ {
		rec := randRec(r)
		if i%3 == 0 {
			rec[0] = whale
			whaleCount++
		}
		res, _, err := c.InsertWait(i%8, "test-index", rec)
		if err != nil || !res.OK {
			t.Fatalf("insert %d: %v %+v", i, err, res)
		}
	}
	ar, _, err := c.AggWait(0, "test-index", fullRect(), 8)
	if err != nil || !ar.Complete {
		t.Fatalf("agg: %v %+v", err, ar)
	}
	found := false
	for _, e := range ar.TopK {
		if e.Key == whale {
			found = true
			if whaleCount > e.Count || whaleCount < e.Count-e.Err {
				t.Fatalf("whale true count %d outside [%d,%d]", whaleCount, e.Count-e.Err, e.Count)
			}
		}
	}
	if !found {
		t.Fatalf("whale key %d missing from top-%d: %+v", whale, len(ar.TopK), ar.TopK)
	}
}

func TestAggAcrossVersions(t *testing.T) {
	c := mkCluster(t, 8, 37, nil)
	if err := c.CreateIndex(testSchema()); err != nil {
		t.Fatal(err)
	}
	c.Settle(3 * time.Second)
	r := rand.New(rand.NewSource(38))
	var all []schema.Record
	// Hourly versions (testNodeCfg): spread records across three hours so
	// the aggregate fans out per version and merges across version
	// tries.
	for i := 0; i < 180; i++ {
		rec := randRec(r)
		rec[1] = uint64(i%3)*3600 + r.Uint64()%3600
		res, _, err := c.InsertWait(i%8, "test-index", rec)
		if err != nil || !res.OK {
			t.Fatalf("insert %d: %v %+v", i, err, res)
		}
		all = append(all, rec)
	}
	// A rect spanning all three versions, and one clipped to the middle.
	for ri, rect := range []schema.Rect{
		{Lo: []uint64{0, 0, 0}, Hi: []uint64{9999, 3*3600 - 1, 9999}},
		{Lo: []uint64{0, 3600, 0}, Hi: []uint64{9999, 2*3600 - 1, 9999}},
	} {
		ar, _, err := c.AggWait(ri%8, "test-index", rect, 0)
		if err != nil || !ar.Complete {
			t.Fatalf("rect %d: %v %+v", ri, err, ar)
		}
		count, sums, _ := aggOracle(all, rect, 4)
		if ar.Count != count {
			t.Fatalf("rect %d: count %d, want %d", ri, ar.Count, count)
		}
		for i, s := range sums {
			if ar.Sums[i] != s {
				t.Fatalf("rect %d: sum[%d] %d, want %d", ri, i, ar.Sums[i], s)
			}
		}
	}
}

func TestAggSurvivesKillWithReplication(t *testing.T) {
	// Kill one node with replication on: after takeover settles, aggregate
	// answers must still complete and must never undercount. Exact
	// equality with the record-path query is NOT guaranteed here: the
	// post-takeover RegionRecall re-inserts surviving replica copies
	// under fresh record ids, the record path collapses those duplicates
	// by content hash, and aggregates count geometrically (the documented
	// DESIGN.md §4i duplicate-copy caveat) — so the upper bound is the
	// total primary copies actually stored across live nodes, and the
	// three counts (aggregate, record answer, distinct stored) coincide
	// exactly when no duplicate copy exists.
	c := mkCluster(t, 12, 39, func(o *cluster.Options) {
		o.Node.Replication = 1
		o.Node.QueryTimeout = 8 * time.Second
	})
	if err := c.CreateIndex(testSchema()); err != nil {
		t.Fatal(err)
	}
	c.Settle(3 * time.Second)
	r := rand.New(rand.NewSource(40))
	n := 200
	for i := 0; i < n; i++ {
		res, _, err := c.InsertWait(i%12, "test-index", randRec(r))
		if err != nil || !res.OK {
			t.Fatalf("insert %d: %v %+v", i, err, res)
		}
	}
	c.Kill(3)
	c.Settle(30 * time.Second)

	got := gatherComplete(t, c, 5, "test-index", fullRect())
	if t.Failed() {
		return
	}
	exact, aggCount := uint64(got[0].count), uint64(got[1].count)
	if want := bruteCount(c, "test-index", fullRect()); got[0].count != want {
		t.Fatalf("record answer has %d records, live nodes store %d distinct", got[0].count, want)
	}
	totalPrimary := uint64(0)
	for i, nd := range c.Nodes {
		if !c.IsDead(i) {
			totalPrimary += uint64(nd.StoredRecords("test-index"))
		}
	}
	if aggCount < exact {
		t.Fatalf("agg undercounts after kill: %d < exact %d", aggCount, exact)
	}
	if aggCount > totalPrimary {
		t.Fatalf("agg count %d exceeds total primary copies %d", aggCount, totalPrimary)
	}
	// Top-k brackets against brute force over what the live nodes store.
	// A key's geometric count t obeys Count-Err <= t <= Count and lies
	// between its distinct records and its primary copies (the same
	// duplicate-copy caveat), so each bracket must reach up to the
	// distinct count and start at or below the copy count, and a key left
	// out of the top-k may not have more distinct records than Floor.
	// The boundary cells and the fail-over pieces are folded exactly, so
	// with no duplicate copy these are the true-count brackets.
	distinct, copies := make(map[uint64]uint64), make(map[uint64]uint64)
	for _, rec := range got[0].records {
		distinct[rec[0]]++
	}
	for _, i := range c.LiveIndices() {
		for _, rec := range c.Nodes[i].LocalQuery("test-index", fullRect()) {
			copies[rec[0]]++
		}
	}
	if len(got[1].topK) == 0 {
		t.Fatal("aggregate answer carries no top-k entries")
	}
	inTop := make(map[uint64]bool)
	for _, e := range got[1].topK {
		inTop[e.Key] = true
		if e.Count < distinct[e.Key] || e.Count-e.Err > copies[e.Key] {
			t.Fatalf("key %d: bracket [%d, %d] misses its %d distinct records / %d copies",
				e.Key, e.Count-e.Err, e.Count, distinct[e.Key], copies[e.Key])
		}
	}
	for k, d := range distinct {
		if !inTop[k] && d > got[1].floor {
			t.Fatalf("key %d has %d records but is absent with floor %d", k, d, got[1].floor)
		}
	}
}

// TestAggTwoVersions runs the node's aggregate resolver over a store
// holding two daily versions: each version's ladder folds its boundary
// cells into one fold beside its rollup's cover part, so COUNT and SUMs
// must equal a fold of the scan oracle and every reported top-k key's
// true count must lie in its [Count−Err, Count] bracket, for a rectangle
// on the summary's cell edges and one off them.
func TestAggTwoVersions(t *testing.T) {
	c := mkCluster(t, 1, 41, func(o *cluster.Options) {
		o.Node.VersionSeconds = 86400
	})
	sch := testSchema()
	sch.Attrs[1].Max = 2*86400 - 1 // two daily versions
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	oracle := store.NewScan(sch)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		rec := schema.Record{r.Uint64() % 10000, r.Uint64() % (2 * 86400), r.Uint64() % 10000, r.Uint64()}
		if i%2 == 0 {
			rec[0] = uint64(r.Intn(16)) * 600 // heavy hitters among a uniform background
		}
		res, _, err := c.InsertWait(0, sch.Tag, rec)
		if err != nil || !res.OK {
			t.Fatalf("insert %d: %v %+v", i, err, res)
		}
		oracle.Insert(rec)
	}
	for _, tc := range []struct {
		name string
		rect schema.Rect
	}{
		// Midpoint cuts of [0, 9999] and [0, 172799]: x's first half, and
		// the middle two quarter-days, which straddle the version boundary.
		{"aligned", schema.Rect{Lo: []uint64{0, 43200, 0}, Hi: []uint64{4999, 129599, 9999}}},
		{"unaligned", schema.Rect{Lo: []uint64{1234, 50000, 100}, Hi: []uint64{8765, 120000, 9000}}},
	} {
		ar, _, err := c.AggWait(0, sch.Tag, tc.rect, 8)
		if err != nil || !ar.Complete {
			t.Fatalf("%s: %v %+v", tc.name, err, ar)
		}
		var count uint64
		sums := make([]uint64, sch.Arity())
		keys := make(map[uint64]uint64)
		for _, rec := range oracle.Query(tc.rect) {
			count++
			for i, v := range rec {
				sums[i] += v
			}
			keys[rec[0]]++
		}
		if count == 0 {
			t.Fatalf("%s: oracle matches nothing", tc.name)
		}
		if ar.Count != count {
			t.Fatalf("%s: count %d, want %d", tc.name, ar.Count, count)
		}
		for i, s := range sums {
			if ar.Sums[i] != s {
				t.Fatalf("%s: sum[%d] %d, want %d", tc.name, i, ar.Sums[i], s)
			}
		}
		if len(ar.TopK) == 0 {
			t.Fatalf("%s: no top-k entries", tc.name)
		}
		reported := make(map[uint64]bool)
		for _, e := range ar.TopK {
			reported[e.Key] = true
			if truth := keys[e.Key]; truth > e.Count || truth < e.Count-e.Err {
				t.Fatalf("%s: key %d true %d outside [%d,%d]", tc.name, e.Key, truth, e.Count-e.Err, e.Count)
			}
		}
		for k, truth := range keys {
			if !reported[k] && truth > ar.Floor {
				t.Fatalf("%s: key %d count %d missing with floor %d", tc.name, k, truth, ar.Floor)
			}
		}
	}
}
