package mind

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mind/internal/bitstr"
	"mind/internal/embed"
	"mind/internal/schema"
	"mind/internal/transport"
	"mind/internal/wire"
)

func ixSchema() *schema.Schema {
	return &schema.Schema{
		Tag: "ix",
		Attrs: []schema.Attr{
			{Name: "x", Kind: schema.KindUint, Max: 999},
			{Name: "t", Kind: schema.KindTime, Max: 86400 * 10},
			{Name: "y", Kind: schema.KindUint, Max: 999},
			{Name: "p"},
		},
		IndexDims: 3,
	}
}

func newTestIndex() *index {
	sch := ixSchema()
	return newIndex(sch, embed.Uniform(sch.Bounds()))
}

func TestIndexVersionMapping(t *testing.T) {
	ix := newTestIndex()
	if ix.timeAttr != 1 {
		t.Fatalf("timeAttr = %d", ix.timeAttr)
	}
	rec := schema.Record{1, 86400*3 + 7, 2, 3}
	if v := ix.version(rec, 86400); v != 3 {
		t.Errorf("version = %d, want 3", v)
	}
	if v := ix.version(rec, 0); v != 0 {
		t.Errorf("versionSeconds=0 must map to version 0, got %d", v)
	}
	// Index without a time attribute: always version 0.
	sch := &schema.Schema{Tag: "nt", Attrs: []schema.Attr{{Name: "a", Max: 9}}, IndexDims: 1}
	nt := newIndex(sch, embed.Uniform(sch.Bounds()))
	if nt.timeAttr != -1 || nt.version(schema.Record{5}, 86400) != 0 {
		t.Error("no-time index version mapping wrong")
	}
}

func TestQueryVersionsSpan(t *testing.T) {
	ix := newTestIndex()
	rect := schema.Rect{Lo: []uint64{0, 86400 - 10, 0}, Hi: []uint64{999, 2*86400 + 10, 999}}
	vs := ix.queryVersions(rect, 86400)
	if len(vs) != 3 || vs[0] != 0 || vs[2] != 2 {
		t.Fatalf("versions = %v", vs)
	}
	// Bound the explosion on full-range time wildcards.
	wild := schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{999, ^uint64(0), 999}}
	vs = ix.queryVersions(wild, 1)
	if len(vs) > 4097 {
		t.Fatalf("unbounded version span: %d", len(vs))
	}
}

func TestGroupVersionsByTree(t *testing.T) {
	ix := newTestIndex()
	balanced := embed.Uniform(ix.sch.Bounds())
	ix.vers[2] = balanced
	groups := ix.groupVersionsByTree([]uint32{0, 1, 2, 3})
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	if len(groups[ix.base]) != 3 || len(groups[balanced]) != 1 {
		t.Fatalf("group sizes wrong: %v", groups)
	}
}

func TestIndexDefRoundTrip(t *testing.T) {
	ix := newTestIndex()
	ix.vers[5] = embed.Uniform(ix.sch.Bounds())
	def := ix.def()
	got, err := indexFromDef(def)
	if err != nil {
		t.Fatal(err)
	}
	if got.sch.Tag != "ix" || got.base == nil {
		t.Fatal("def round trip lost schema/base")
	}
	if _, ok := got.vers[5]; !ok {
		t.Fatal("version tree lost")
	}
	// Codes agree after round trip.
	p := []uint64{500, 86400, 250}
	if !got.tree(0).PointCode(p, 10).Equal(ix.tree(0).PointCode(p, 10)) {
		t.Fatal("round-tripped tree disagrees")
	}
	// Bad defs rejected.
	if _, err := indexFromDef(wire.IndexDef{Schema: &schema.Schema{}}); err == nil {
		t.Error("invalid schema accepted")
	}
	bad := def
	bad.Versions = []wire.VersionDef{{Version: 1, Tree: []byte{1, 2, 3}}}
	if _, err := indexFromDef(bad); err == nil {
		t.Error("corrupt tree accepted")
	}
}

func TestIndexDefMissingBaseGetsUniform(t *testing.T) {
	d := wire.IndexDef{Schema: ixSchema()}
	ix, err := indexFromDef(d)
	if err != nil {
		t.Fatal(err)
	}
	if ix.base == nil {
		t.Fatal("no default base tree")
	}
}

// TestStoreRecordDedup: the primary store keeps one copy per ReqID, and
// two inserts of one record under different ReqIDs are both new. The
// second copy is a retransmission, a repeat as every sender sends it.
func TestStoreRecordDedup(t *testing.T) {
	ix := newTestIndex()
	rec := schema.Record{1, 2, 3, 4}
	if !ix.storeRecord(0, 42, rec, false) {
		t.Fatal("first store rejected")
	}
	if ix.storeRecord(0, 42, rec, true) {
		t.Fatal("duplicate ReqID accepted (a retransmission would duplicate data)")
	}
	if !ix.storeRecord(0, 43, rec, false) {
		t.Fatal("a second insert of the record, under its own ReqID, rejected")
	}
	if ix.primary.Len() != 2 {
		t.Fatalf("stored = %d, want 2", ix.primary.Len())
	}
}

// TestRepeatDedupOriginalsLeaveNoState: originals only look their
// ReqIDs up, so any number of them leaves the owner's dedup set empty,
// with no table allocated in either generation.
func TestRepeatDedupOriginalsLeaveNoState(t *testing.T) {
	ix := newTestIndex()
	for i := range uint64(100_000) {
		if !ix.storeRecord(0, i+1, schema.Record{i % 1000, i % 86400, i / 1000 % 1000, i}, false) {
			t.Fatalf("original %d dropped", i+1)
		}
	}
	d := ix.reqSeen.seen
	if d.Len() != 0 || len(d.cur.keys) != 0 || len(d.prev.keys) != 0 {
		t.Fatalf("dedup set holds %d ids in %d+%d slots after originals only, want none",
			d.Len(), len(d.cur.keys), len(d.prev.keys))
	}
}

// countingClock counts Now calls; it schedules nothing.
type countingClock struct {
	transport.Clock
	now   time.Time
	reads atomic.Int64
}

func (c *countingClock) Now() time.Time { c.reads.Add(1); return c.now }

// TestFireTriggersArmed: storing a record reads the clock only while a
// trigger is installed, and the last trigger expiring disarms the index
// again. Installs and removals racing the store path are safe.
func TestFireTriggersArmed(t *testing.T) {
	ix := newTestIndex()
	clk := &countingClock{now: time.Unix(1000, 0)}
	rec := schema.Record{1, 2, 3, 4}
	if fired := ix.fireTriggers(clk, rec); fired != nil || clk.reads.Load() != 0 {
		t.Fatalf("no trigger: fired %d, read the clock %d times, want 0 and 0", len(fired), clk.reads.Load())
	}
	tr := &trigger{id: 1, rect: ix.sch.FullRect(), expires: clk.now.Add(time.Minute)}
	ix.mu.Lock()
	ix.setTriggersLocked([]*trigger{tr})
	ix.mu.Unlock()
	if fired := ix.fireTriggers(clk, rec); len(fired) != 1 || clk.reads.Load() != 1 {
		t.Fatalf("one trigger: fired %d, read the clock %d times, want 1 and 1", len(fired), clk.reads.Load())
	}
	clk.now = clk.now.Add(2 * time.Minute)
	if fired := ix.fireTriggers(clk, rec); fired != nil || ix.armed.Load() {
		t.Fatalf("expired trigger: fired %d, armed %v, want 0 and false", len(fired), ix.armed.Load())
	}

	clk.now = time.Unix(1000, 0)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				ix.fireTriggers(clk, rec)
			}
		}()
	}
	for i := range 1000 {
		ix.mu.Lock()
		if i%2 == 0 {
			ix.setTriggersLocked([]*trigger{tr})
		} else {
			ix.setTriggersLocked(nil)
		}
		ix.mu.Unlock()
	}
	wg.Wait()
}

func TestAbsorbReplicas(t *testing.T) {
	ix := newTestIndex()
	owner := ix.base.PointCode([]uint64{10, 10, 10}, 3)
	// Replicas: one inside the owner region, one outside it.
	inside := schema.Record{10, 10, 10, 1}
	var outside schema.Record
	for v := uint64(0); ; v += 37 {
		cand := schema.Record{v % 1000, 20, 900, 2}
		if !owner.IsPrefixOf(ix.base.PointCode(cand.Point(ix.sch), owner.Len())) {
			outside = cand
			break
		}
	}
	ix.noteReplicaOwner(owner)
	ix.noteReplicaOwner(owner) // idempotent: a known owner takes only the read lock
	ix.replicas.Insert(0, inside)
	ix.replicas.Insert(0, outside)
	ix.absorbReplicas(owner)
	if ix.primary.Len() != 1 {
		t.Fatalf("absorbed %d records, want exactly the in-region one", ix.primary.Len())
	}
	got := ix.primary.QueryAll(ix.sch.FullRect())
	if got[0][3] != 1 {
		t.Fatal("wrong record absorbed")
	}
	// No-op when no owner matches.
	before := ix.primary.Len()
	ix.absorbReplicas(bitstr.MustParse("111111"))
	if ix.primary.Len() != before {
		t.Fatal("absorb for unknown region moved data")
	}
}

func TestHistoryActive(t *testing.T) {
	ix := newTestIndex()
	now := time.Unix(1000, 0)
	if ix.historyActive(now) {
		t.Fatal("no pointer must be inactive")
	}
	ix.histAddr = "sib"
	ix.histUntil = now.Add(time.Minute)
	if !ix.historyActive(now) {
		t.Fatal("pointer should be active")
	}
	if ix.historyActive(now.Add(2 * time.Minute)) {
		t.Fatal("pointer should expire")
	}
}
