package mind

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"mind/internal/schema"
	"mind/internal/transport"
	"mind/internal/transport/simnet"
	"mind/internal/wire"
)

// Tests for the insert group (insert.go): every tracked insert settles
// into one, and the group owns the timers.

// timerLog is what recordingClock keeps of one AfterFunc, its callback
// included: Go's runtime keeps a stopped timer, and so what its callback
// references, in its timer heap until it cleans it.
type timerLog struct {
	delay        time.Duration
	fn           func()
	ran, stopped bool
}

// recordingClock books every timer a node arms. simnet runs everything
// on one goroutine, so the log needs no lock.
type recordingClock struct {
	transport.Clock
	timers []*timerLog
}

func (c *recordingClock) AfterFunc(d time.Duration, f func()) transport.Timer {
	l := &timerLog{delay: d, fn: f}
	c.timers = append(c.timers, l)
	return recordedTimer{c.Clock.AfterFunc(d, func() { l.ran = true; f() }), l}
}

type recordedTimer struct {
	transport.Timer
	log *timerLog
}

func (t recordedTimer) Stop() bool {
	t.log.stopped = true
	return t.Timer.Stop()
}

// ownedRecs returns n records whose owner, as a sees the overlay, is a
// (local) or its peer.
func ownedRecs(t *testing.T, a *Node, tag string, seed int64, local bool, n int) []schema.Record {
	t.Helper()
	ix, _ := a.getIndex(tag)
	var out []schema.Record
	for _, rec := range envelopeRecs(seed, 64*n) {
		if a.ov.Owns(ix.base.PointCode(rec.PointInto(ix.sch, nil), 8)) == local {
			if out = append(out, rec); len(out) == n {
				return out
			}
		}
	}
	t.Fatalf("only %d of %d records with local=%v", len(out), n, local)
	return nil
}

// TestInsertGroupTimers: a settled group leaves no live timer behind, and
// an unsettled one still times out — each member once, at InsertTimeout.
// A repair's re-inserts are one group too: one timer, one run per first
// hop.
func TestInsertGroupTimers(t *testing.T) {
	// No other timer of the node or its overlay runs 31 s.
	const insertTimeout = 31 * time.Second
	clock := &recordingClock{}
	wrap := func(c transport.Clock) transport.Clock { clock.Clock = c; return clock }
	insertTimers := func() (armed, live int) {
		for _, l := range clock.timers {
			if l.delay == insertTimeout {
				armed++
				if !l.stopped && !l.ran {
					live++
				}
			}
		}
		return
	}

	t.Run("settled", func(t *testing.T) {
		clock.timers = nil
		net, a, _, _, _, sch := tapPairWith(t, wrap, func(c *Config) { c.InsertTimeout = insertTimeout })
		for i, res := range insertBatchSettled(t, net, a, sch.Tag, envelopeRecs(21, 64)) {
			if !res.OK {
				t.Fatalf("record %d: %+v", i, res)
			}
		}
		var single *InsertResult
		if err := a.Insert(sch.Tag, ownedRecs(t, a, sch.Tag, 22, false, 1)[0], func(r InsertResult) { single = &r }); err != nil {
			t.Fatal(err)
		}
		if !net.RunUntil(func() bool { return single != nil }, 10_000_000) || !single.OK {
			t.Fatalf("single insert: %+v", single)
		}
		if armed, live := insertTimers(); armed != 2 || live != 0 {
			t.Errorf("%d InsertTimeout timers armed, %d still live after every member acked; want 2 and 0", armed, live)
		}
		if p := a.PendingInserts(); p != 0 {
			t.Errorf("PendingInserts = %d after every member acked", p)
		}
	})

	t.Run("lets go", func(t *testing.T) {
		clock.timers = nil
		net, a, _, _, _, sch := tapPairWith(t, wrap, func(c *Config) { c.InsertTimeout = insertTimeout })
		for _, local := range []bool{true, false} {
			recs := ownedRecs(t, a, sch.Tag, 26, local, 16)
			if kept, cbKept := settledGroupHolds(t, net, a, sch.Tag, recs); kept != 0 || cbKept {
				t.Errorf("local=%v: a settled group still reaches %d of its %d records and its callback=%v; want none of either", local, kept, len(recs), cbKept)
			}
		}
		if armed, live := insertTimers(); armed != 2 || live != 0 {
			t.Errorf("%d InsertTimeout timers armed, %d still live; want 2 and 0", armed, live)
		}
	})

	t.Run("orphaned", func(t *testing.T) {
		clock.timers = nil
		var maxRetries int
		net, a, _, _, _, sch := tapPairWith(t, wrap, func(c *Config) {
			c.InsertTimeout = insertTimeout
			c.Replication = 0
			// Slow failure detection: nobody takes the dead owner's region
			// over while the retries run.
			c.Overlay.FailAfter = 10 * time.Minute
			maxRetries = c.MaxRetries
		})
		// One member's owner is dead; it rides in the middle of the batch.
		local := ownedRecs(t, a, sch.Tag, 23, true, 6)
		orphan := ownedRecs(t, a, sch.Tag, 24, false, 1)[0]
		const at = 3
		batch := append(append(append([]schema.Record(nil), local[:at]...), orphan), local[at:]...)
		net.Kill("b")

		start := net.Now()
		type fired struct {
			n  int
			at time.Duration
		}
		var batchFired, singleFired fired
		var batchRes []InsertResult
		var singleRes InsertResult
		if err := a.InsertBatch(sch.Tag, batch, func(rs []InsertResult) {
			batchRes, batchFired = rs, fired{batchFired.n + 1, net.Now().Sub(start)}
		}); err != nil {
			t.Fatal(err)
		}
		if err := a.Insert(sch.Tag, orphan, func(r InsertResult) {
			singleRes, singleFired = r, fired{singleFired.n + 1, net.Now().Sub(start)}
		}); err != nil {
			t.Fatal(err)
		}
		// The locally owned members settled inside the call.
		if p := a.PendingInserts(); p != 2 {
			t.Fatalf("PendingInserts = %d right after dispatch, want the two orphans", p)
		}
		net.RunFor(3 * insertTimeout)
		if want := (fired{1, insertTimeout}); batchFired != want || singleFired != want {
			t.Fatalf("callbacks fired %+v (batch) and %+v (single), want each once at %v", batchFired, singleFired, insertTimeout)
		}
		timedOut := func(r InsertResult) bool {
			return !r.OK && r.Err == errTimeout && r.Attempts == maxRetries
		}
		if !timedOut(singleRes) {
			t.Errorf("orphaned Insert: %+v, want a timeout after %d retransmissions", singleRes, maxRetries)
		}
		if len(batchRes) != len(batch) {
			t.Fatalf("%d batch results for %d records", len(batchRes), len(batch))
		}
		for i, r := range batchRes {
			if i == at {
				if !timedOut(r) {
					t.Errorf("orphaned batch member: %+v, want a timeout after %d retransmissions", r, maxRetries)
				}
			} else if !r.OK || r.StoredAt != "a" || r.Attempts != 0 {
				t.Errorf("batch member %d: %+v, want stored at a at once", i, r)
			}
		}
		if armed, live := insertTimers(); armed != 2 || live != 0 {
			t.Errorf("%d InsertTimeout timers armed, %d still live after the timeout; want 2 and 0", armed, live)
		}
		if p := a.PendingInserts(); p != 0 {
			t.Errorf("PendingInserts = %d after the timeout", p)
		}
	})
	t.Run("rehome", func(t *testing.T) {
		clock.timers = nil
		net, a, b, ta, _, sch := tapPairWith(t, wrap, func(c *Config) { c.InsertTimeout = insertTimeout })
		ix, _ := a.getIndex(sch.Tag)
		// Records b owns, stranded in a's primary store.
		var stranded []schema.Record
		for _, rec := range ownedRecs(t, a, sch.Tag, 25, false, 40) {
			if ix.version(rec, a.cfg.VersionSeconds) == 0 {
				stranded = append(stranded, rec)
			}
		}
		for i, rec := range stranded {
			ix.storeRecord(0, uint64(1<<40+i), rec, false)
		}
		if got := a.rehomeForeign(ix, 0); got != len(stranded) {
			t.Fatalf("rehomeForeign re-inserted %d records, want %d", got, len(stranded))
		}
		if armed, _ := insertTimers(); armed != 1 {
			t.Errorf("%d InsertTimeout timers armed for %d re-inserts, want 1", armed, len(stranded))
		}
		key := tapKey{"b", wire.KindInsert}
		if ta.frames[key] != 1 || ta.msgs[key] != len(stranded) {
			t.Errorf("%d insert frames carrying %d records to b, want one run of %d", ta.frames[key], ta.msgs[key], len(stranded))
		}
		net.RunFor(5 * time.Second)
		if got := b.StoredRecords(sch.Tag); got != len(stranded) || a.PendingInserts() != 0 {
			t.Errorf("b stores %d records with %d pending, want %d acked", got, a.PendingInserts(), len(stranded))
		}
		if _, live := insertTimers(); live != 0 {
			t.Errorf("%d InsertTimeout timers still live after every re-insert acked", live)
		}
	})
}

// settledGroupHolds runs one InsertBatch of copies of recs from a to
// completion and reports how many of the copies, and whether what its
// callback captured, are still reachable two collections later. The
// recording clock still holds every timer's callback, as the runtime's
// timer heap holds a stopped timer's, and through it the group.
func settledGroupHolds(t *testing.T, net *simnet.Network, a *Node, tag string, recs []schema.Record) (kept int, cbKept bool) {
	t.Helper()
	var recsFreed, cbFreed atomic.Int64
	settled := false
	func() {
		batch := make([]schema.Record, len(recs))
		for i, rec := range recs {
			batch[i] = slices.Clone(rec)
			runtime.SetFinalizer(&batch[i][0], func(*uint64) { recsFreed.Add(1) })
		}
		token := new([4]uint64) // reachable through the callback alone
		runtime.SetFinalizer(token, func(*[4]uint64) { cbFreed.Add(1) })
		if err := a.InsertBatch(tag, batch, func([]InsertResult) { token[0]++; settled = true }); err != nil {
			t.Fatal(err)
		}
	}()
	if !net.RunUntil(func() bool { return settled }, 10_000_000) {
		t.Fatal("batch never settled")
	}
	runtime.GC()
	runtime.GC()
	// Finalizers run on their own goroutine; wait for them.
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if int(recsFreed.Load()) == len(recs) && cbFreed.Load() == 1 {
			break
		}
	}
	return len(recs) - int(recsFreed.Load()), cbFreed.Load() == 0
}

// TestInsertDeadEndResent: an insert with neither a first hop nor a
// detour is dropped and counted — its first attempt leaves in no frame —
// and its group's retransmission delivers it once a route exists.
func TestInsertDeadEndResent(t *testing.T) {
	net, a, b, ta, _, sch := tapPair(t)
	firstAttempts := 0 // frames from a carrying the insert's first attempt
	ta.edit = func(_ string, msg []byte) []byte {
		if m, err := wire.Decode(msg); err == nil {
			for _, run := range writeRuns(m) {
				if ir, ok := run.(*wire.InsertRun); ok && ir.Attempt == 0 {
					firstAttempts++
				}
			}
		}
		return msg
	}
	rec := ownedRecs(t, a, sch.Tag, 11, false, 1)[0]
	// b is a's only contact. Suspected, it leaves a without a first hop
	// until b's next heartbeat clears the suspicion.
	a.ov.SuspectContact(b.Addr())
	var res *InsertResult
	if err := a.Insert(sch.Tag, rec, func(r InsertResult) { res = &r }); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().DeadEnds; got != 1 {
		t.Fatalf("DeadEnds = %d after an insert with no first hop, want 1", got)
	}
	if !net.RunUntil(func() bool { return res != nil }, 10_000_000) {
		t.Fatal("insert never settled")
	}
	if firstAttempts != 0 {
		t.Fatalf("%d frames carried the dead-ended first attempt", firstAttempts)
	}
	if !res.OK || res.StoredAt != b.Addr() || res.Attempts < 1 {
		t.Fatalf("result %+v, want stored at %s by a retransmission", *res, b.Addr())
	}
	if st := b.Stats(); st.Stored != 1 || st.DeadEnds != 0 {
		t.Fatalf("b stored %d records with %d dead ends, want 1 and 0", st.Stored, st.DeadEnds)
	}
}
