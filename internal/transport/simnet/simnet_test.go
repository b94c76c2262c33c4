package simnet

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mind/internal/schema"
	"mind/internal/wire"
)

func TestBasicDelivery(t *testing.T) {
	n := New(Config{Seed: 1, DefaultLatency: 10 * time.Millisecond})
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	var from string
	var at time.Time
	b.SetHandler(func(f string, msg []byte) {
		from, got = f, msg
		at = n.Now()
	})
	start := n.Now()
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	n.Run(0)
	if string(got) != "hello" || from != "a" {
		t.Fatalf("got %q from %q", got, from)
	}
	if d := at.Sub(start); d != 10*time.Millisecond {
		t.Fatalf("delivery latency = %v", d)
	}
}

func TestDuplicateAddr(t *testing.T) {
	n := New(Config{Seed: 1})
	if _, err := n.Endpoint("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Endpoint("x"); err == nil {
		t.Fatal("duplicate address accepted")
	}
}

func TestUnknownPeer(t *testing.T) {
	n := New(Config{Seed: 1})
	a, _ := n.Endpoint("a")
	if err := a.Send("ghost", []byte("x")); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestMessageIsolation(t *testing.T) {
	// The receiver must get a copy, immune to sender-side mutation.
	n := New(Config{Seed: 1})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	var got []byte
	b.SetHandler(func(_ string, msg []byte) { got = msg })
	buf := []byte("abc")
	a.Send("b", buf)
	buf[0] = 'X'
	n.Run(0)
	if string(got) != "abc" {
		t.Fatalf("message aliased sender buffer: %q", got)
	}
}

func TestKillAndRevive(t *testing.T) {
	n := New(Config{Seed: 1})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	var count atomic.Int32
	b.SetHandler(func(string, []byte) { count.Add(1) })
	n.Kill("b")
	if !n.IsDead("b") {
		t.Fatal("IsDead wrong")
	}
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal("send to dead peer must be silent loss, not error")
	}
	n.Run(0)
	if count.Load() != 0 {
		t.Fatal("dead node received message")
	}
	n.Revive("b")
	a.Send("b", []byte("y"))
	n.Run(0)
	if count.Load() != 1 {
		t.Fatal("revived node did not receive")
	}
	// Dead sender errors.
	n.Kill("a")
	if err := a.Send("b", []byte("z")); err == nil {
		t.Fatal("dead sender could send")
	}
}

func TestKillInFlight(t *testing.T) {
	// A message already in flight to a node killed before delivery must
	// be dropped.
	n := New(Config{Seed: 1, DefaultLatency: 50 * time.Millisecond})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	var count atomic.Int32
	b.SetHandler(func(string, []byte) { count.Add(1) })
	a.Send("b", []byte("x"))
	n.Kill("b")
	n.Run(0)
	if count.Load() != 0 {
		t.Fatal("in-flight message delivered to killed node")
	}
	st := n.Stats()
	if st.Dropped != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCutAndRestoreLink(t *testing.T) {
	n := New(Config{Seed: 1})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	var count atomic.Int32
	b.SetHandler(func(string, []byte) { count.Add(1) })
	a.SetHandler(func(string, []byte) { count.Add(1) })
	n.CutLink("a", "b")
	a.Send("b", []byte("x"))
	b.Send("a", []byte("x"))
	n.Run(0)
	if count.Load() != 0 {
		t.Fatal("cut link delivered")
	}
	n.RestoreLink("a", "b")
	a.Send("b", []byte("x"))
	n.Run(0)
	if count.Load() != 1 {
		t.Fatal("restored link did not deliver")
	}
}

func TestOutageExpires(t *testing.T) {
	n := New(Config{Seed: 1, DefaultLatency: time.Millisecond})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	var count atomic.Int32
	b.SetHandler(func(string, []byte) { count.Add(1) })
	n.Outage("a", "b", 100*time.Millisecond)
	a.Send("b", []byte("x")) // lost: outage active
	n.RunFor(200 * time.Millisecond)
	if count.Load() != 0 {
		t.Fatal("message delivered during outage")
	}
	a.Send("b", []byte("y")) // outage expired
	n.Run(0)
	if count.Load() != 1 {
		t.Fatal("message lost after outage expired")
	}
}

func TestLoss(t *testing.T) {
	n := New(Config{Seed: 7, LossProb: 0.5})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	var count atomic.Int32
	b.SetHandler(func(string, []byte) { count.Add(1) })
	for i := 0; i < 1000; i++ {
		a.Send("b", []byte("x"))
	}
	n.Run(0)
	got := int(count.Load())
	if got < 400 || got > 600 {
		t.Fatalf("with 50%% loss, delivered %d/1000", got)
	}
}

func TestBandwidthQueueing(t *testing.T) {
	// 1000 bytes+64 overhead at 8512 bits/ms... pick numbers that make
	// two back-to-back messages arrive serialized.
	n := New(Config{
		Seed:                1,
		DefaultLatency:      10 * time.Millisecond,
		BandwidthBps:        8 * 1064 * 10, // exactly 10 messages of 1064B per second
		PerMsgOverheadBytes: 64,
	})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	var times []time.Time
	b.SetHandler(func(string, []byte) { times = append(times, n.Now()) })
	msg := make([]byte, 1000)
	start := n.Now()
	a.Send("b", msg)
	a.Send("b", msg)
	n.Run(0)
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	// First: tx 100ms + 10ms latency = 110ms. Second queues behind:
	// tx starts at 100ms, ends 200ms, +10ms = 210ms.
	if d := times[0].Sub(start); d != 110*time.Millisecond {
		t.Errorf("first delivery at %v", d)
	}
	if d := times[1].Sub(start); d != 210*time.Millisecond {
		t.Errorf("second delivery at %v (link serialization broken)", d)
	}
}

func TestNodeServiceQueue(t *testing.T) {
	// Two senders hit one receiver; receiver processes serially.
	n := New(Config{Seed: 1, DefaultLatency: time.Millisecond, ServiceTime: 50 * time.Millisecond})
	a, _ := n.Endpoint("a")
	c, _ := n.Endpoint("c")
	b, _ := n.Endpoint("b")
	var times []time.Time
	b.SetHandler(func(string, []byte) { times = append(times, n.Now()) })
	start := n.Now()
	a.Send("b", []byte("x"))
	c.Send("b", []byte("y"))
	n.Run(0)
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	if d := times[0].Sub(start); d != 51*time.Millisecond {
		t.Errorf("first processed at %v", d)
	}
	if d := times[1].Sub(start); d != 101*time.Millisecond {
		t.Errorf("second processed at %v (node service queue broken)", d)
	}
}

func TestCustomLatencyFunc(t *testing.T) {
	n := New(Config{
		Seed: 1,
		Latency: func(from, to string) time.Duration {
			if from == "a" && to == "b" {
				return 123 * time.Millisecond
			}
			return time.Millisecond
		},
	})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	var at time.Time
	b.SetHandler(func(string, []byte) { at = n.Now() })
	start := n.Now()
	a.Send("b", []byte("x"))
	n.Run(0)
	if d := at.Sub(start); d != 123*time.Millisecond {
		t.Fatalf("latency func ignored: %v", d)
	}
}

func TestClockAfterFunc(t *testing.T) {
	n := New(Config{Seed: 1})
	clk := n.Clock()
	var fired []time.Duration
	start := clk.Now()
	clk.AfterFunc(30*time.Millisecond, func() { fired = append(fired, clk.Now().Sub(start)) })
	clk.AfterFunc(10*time.Millisecond, func() { fired = append(fired, clk.Now().Sub(start)) })
	stopped := clk.AfterFunc(20*time.Millisecond, func() { t.Error("stopped timer fired") })
	if !stopped.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	if stopped.Stop() {
		t.Fatal("second Stop returned true")
	}
	n.Run(0)
	if len(fired) != 2 || fired[0] != 10*time.Millisecond || fired[1] != 30*time.Millisecond {
		t.Fatalf("fired = %v", fired)
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	n := New(Config{Seed: 1})
	clk := n.Clock()
	tm := clk.AfterFunc(time.Millisecond, func() {})
	n.Run(0)
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
}

// TestStoppedTimerReleasesCallback: a stopped timer's event stays queued
// until its time comes, but what the callback references must not — an
// insert group stops a 30 s timer per batch and would otherwise stay
// reachable from the event queue for 30 virtual seconds each.
func TestStoppedTimerReleasesCallback(t *testing.T) {
	n := New(Config{Seed: 1})
	var freed atomic.Bool
	func() {
		held := new([64]byte)
		runtime.SetFinalizer(held, func(*[64]byte) { freed.Store(true) })
		n.Clock().AfterFunc(time.Hour, func() { held[0]++ }).Stop()
	}()
	for i := 0; i < 20 && !freed.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !freed.Load() {
		t.Fatal("a stopped timer still pins what its callback references")
	}
	if n.Pending() == 0 {
		t.Fatal("the stopped timer's event left the queue: the test no longer shows what it claims")
	}
}

func TestRunUntilAndRunFor(t *testing.T) {
	n := New(Config{Seed: 1, DefaultLatency: 10 * time.Millisecond})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	var got bool
	b.SetHandler(func(string, []byte) { got = true })
	a.Send("b", []byte("x"))
	if !n.RunUntil(func() bool { return got }, 100) {
		t.Fatal("RunUntil did not complete")
	}
	// RunFor advances the clock even with no events.
	before := n.Now()
	n.RunFor(5 * time.Second)
	if d := n.Now().Sub(before); d != 5*time.Second {
		t.Fatalf("RunFor advanced %v", d)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		n := New(Config{Seed: 42, JitterFrac: 0.5, LossProb: 0.1})
		a, _ := n.Endpoint("a")
		b, _ := n.Endpoint("b")
		var order []string
		b.SetHandler(func(_ string, msg []byte) { order = append(order, string(msg)+n.Now().String()) })
		a.SetHandler(func(_ string, msg []byte) {
			order = append(order, string(msg)+n.Now().String())
			b.Send("a", append([]byte("r"), msg...))
		})
		for i := 0; i < 50; i++ {
			a.Send("b", []byte{byte(i)})
			b.Send("a", []byte{byte(i)})
		}
		n.Run(0)
		return order
	}
	x, y := run(), run()
	if len(x) != len(y) {
		t.Fatalf("different event counts: %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("divergence at event %d", i)
		}
	}
}

func TestClosedEndpoint(t *testing.T) {
	n := New(Config{Seed: 1})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	var count atomic.Int32
	b.SetHandler(func(string, []byte) { count.Add(1) })
	a.Send("b", []byte("x"))
	b.Close()
	n.Run(0)
	if count.Load() != 0 {
		t.Fatal("closed endpoint received")
	}
	if err := b.Send("a", []byte("x")); err == nil {
		t.Fatal("closed endpoint could send")
	}
	// The address can be reused after close.
	if _, err := n.Endpoint("b"); err != nil {
		t.Fatalf("address not reusable after close: %v", err)
	}
}

func TestLinkTrafficStats(t *testing.T) {
	n := New(Config{Seed: 1})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	b.SetHandler(func(string, []byte) {})
	a.Send("b", []byte("xx"))
	a.Send("b", []byte("yy"))
	n.Run(0)
	lt := n.LinkTraffic()
	if lt["a→b"] != 2 {
		t.Fatalf("link traffic = %v", lt)
	}
	st := n.Stats()
	if st.Sent != 2 || st.Delivered != 2 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBatchPayloadRoundTrip(t *testing.T) {
	// A coalesced wire.Batch envelope must survive the simulated link
	// byte-for-byte and decode back into its sub-messages.
	n := New(Config{Seed: 1, DefaultLatency: time.Millisecond})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")

	sub1 := wire.Encode(&wire.Heartbeat{From: wire.NodeInfo{Addr: "a"}})
	sent := &wire.InsertAcks{}
	sent.Append(7, 3)
	sub2 := wire.Encode(sent)
	payload := wire.Encode(&wire.Batch{Msgs: [][]byte{sub1, sub2}})

	var got []byte
	b.SetHandler(func(_ string, msg []byte) { got = append([]byte(nil), msg...) })
	if err := a.Send("b", payload); err != nil {
		t.Fatal(err)
	}
	n.Run(0)
	m, err := wire.Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	batch, ok := m.(*wire.Batch)
	if !ok {
		t.Fatalf("decoded %T, want *wire.Batch", m)
	}
	if len(batch.Msgs) != 2 {
		t.Fatalf("batch carries %d sub-messages", len(batch.Msgs))
	}
	ack, err := wire.Decode(batch.Msgs[1])
	if err != nil {
		t.Fatal(err)
	}
	if a2, ok := ack.(*wire.InsertAcks); !ok || !reflect.DeepEqual(a2.Rows.Records(), []schema.Record{{7, 3}}) {
		t.Fatalf("sub-message round-trip: %#v", ack)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(Config{Seed: 1})
	eps := map[string]*Endpoint{}
	recv := map[string]*atomic.Int32{}
	for _, addr := range []string{"a1", "a2", "b1", "b2"} {
		ep, err := n.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		cnt := &atomic.Int32{}
		ep.SetHandler(func(string, []byte) { cnt.Add(1) })
		eps[addr], recv[addr] = ep, cnt
	}
	groupA := []string{"a1", "a2"}
	groupB := []string{"b1", "b2"}
	n.Partition(groupA, groupB)

	// Cross-group traffic drops silently, both directions.
	eps["a1"].Send("b1", []byte("x"))
	eps["a2"].Send("b2", []byte("x"))
	eps["b1"].Send("a2", []byte("x"))
	n.Run(0)
	for _, addr := range []string{"b1", "b2", "a2"} {
		if recv[addr].Load() != 0 {
			t.Fatalf("cross-partition message delivered to %s", addr)
		}
	}
	// Intra-group traffic is unaffected.
	eps["a1"].Send("a2", []byte("x"))
	eps["b1"].Send("b2", []byte("x"))
	n.Run(0)
	if recv["a2"].Load() != 1 || recv["b2"].Load() != 1 {
		t.Fatal("intra-partition message lost")
	}

	// A manual cut made before Heal must survive Heal.
	n.CutLink("a1", "b1")
	n.Heal()
	eps["a1"].Send("b2", []byte("x"))
	eps["b2"].Send("a1", []byte("x"))
	n.Run(0)
	if recv["b2"].Load() != 2 || recv["a1"].Load() != 1 {
		t.Fatal("healed cross-group link did not deliver")
	}
	eps["a1"].Send("b1", []byte("x"))
	n.Run(0)
	if recv["b1"].Load() != 0 {
		t.Fatal("Heal restored a link cut via CutLink")
	}
	n.RestoreLink("a1", "b1")
	eps["a1"].Send("b1", []byte("x"))
	n.Run(0)
	if recv["b1"].Load() != 1 {
		t.Fatal("RestoreLink after Heal did not deliver")
	}
}

// TestPartitionHealAsymmetry pins the ownership split between the two
// cut mechanisms: RestoreLink must not lift a partition cut, Heal must
// not lift an individual cut, and repeated Partition calls accumulate
// until one Heal clears them all.
func TestPartitionHealAsymmetry(t *testing.T) {
	n := New(Config{Seed: 11, DefaultLatency: time.Millisecond})
	eps := map[string]*Endpoint{}
	recv := map[string]*atomic.Int32{}
	for _, addr := range []string{"a", "b", "c"} {
		ep, err := n.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		eps[addr] = ep
		cnt := &atomic.Int32{}
		recv[addr] = cnt
		ep.SetHandler(func(string, []byte) { cnt.Add(1) })
	}
	send := func(from, to string) int32 {
		eps[from].Send(to, []byte("x"))
		n.Run(0)
		return recv[to].Load()
	}

	// RestoreLink on a partition cut is a no-op: partCuts are not
	// cutLinks.
	n.Partition([]string{"a"}, []string{"b"})
	n.RestoreLink("a", "b")
	if got := send("a", "b"); got != 0 {
		t.Fatal("RestoreLink lifted a partition cut")
	}
	// Accumulated partitions all clear on one Heal.
	n.Partition([]string{"a"}, []string{"c"})
	if got := send("a", "c"); got != 0 {
		t.Fatal("second Partition did not cut a–c")
	}
	n.Heal()
	if got := send("a", "b"); got != 1 {
		t.Fatal("Heal did not lift the first partition")
	}
	if got := send("a", "c"); got != 1 {
		t.Fatal("Heal did not lift the accumulated partition")
	}
	// Heal is idempotent and safe with no partition outstanding.
	n.Heal()
	if got := send("b", "a"); got != 1 {
		t.Fatal("Heal with no partition broke a link")
	}
}

// TestSetLossProbBoundaries exercises the 0.0 and 1.0 boundary values the
// chaos scheduler ramps between: 0.0 must never draw a loss, 1.0 must
// never deliver, and returning to 0.0 restores lossless delivery.
func TestSetLossProbBoundaries(t *testing.T) {
	n := New(Config{Seed: 3, DefaultLatency: time.Millisecond})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	var count atomic.Int32
	b.SetHandler(func(string, []byte) { count.Add(1) })

	for i := 0; i < 200; i++ {
		a.Send("b", []byte("x"))
	}
	n.Run(0)
	if got := count.Load(); got != 200 {
		t.Fatalf("LossProb 0.0 delivered %d/200", got)
	}
	n.SetLossProb(1.0)
	for i := 0; i < 200; i++ {
		a.Send("b", []byte("x"))
	}
	n.Run(0)
	if got := count.Load(); got != 200 {
		t.Fatalf("LossProb 1.0 delivered %d extra", got-200)
	}
	n.SetLossProb(0.0)
	for i := 0; i < 200; i++ {
		a.Send("b", []byte("x"))
	}
	n.Run(0)
	if got := count.Load(); got != 400 {
		t.Fatalf("after reset to 0.0 delivered %d/400", got)
	}
	st := n.Stats()
	if st.Dropped != 200 {
		t.Fatalf("dropped = %d, want exactly the 200 sent at p=1.0", st.Dropped)
	}
}

// TestSetLinkLatency checks that a runtime override beats the configured
// latency model in both directions and that ClearLinkLatency restores it.
func TestSetLinkLatency(t *testing.T) {
	n := New(Config{Seed: 1, DefaultLatency: 10 * time.Millisecond})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	var at time.Time
	b.SetHandler(func(string, []byte) { at = n.Now() })
	a.SetHandler(func(string, []byte) { at = n.Now() })

	n.SetLinkLatency("a", "b", 150*time.Millisecond)
	start := n.Now()
	a.Send("b", []byte("x"))
	n.Run(0)
	if d := at.Sub(start); d != 150*time.Millisecond {
		t.Fatalf("a→b latency = %v, want 150ms", d)
	}
	start = n.Now()
	b.Send("a", []byte("x"))
	n.Run(0)
	if d := at.Sub(start); d != 150*time.Millisecond {
		t.Fatalf("b→a latency = %v, want 150ms", d)
	}
	n.ClearLinkLatency("a", "b")
	start = n.Now()
	a.Send("b", []byte("x"))
	n.Run(0)
	if d := at.Sub(start); d != 10*time.Millisecond {
		t.Fatalf("after clear latency = %v, want 10ms", d)
	}
}

// TestStallNodeDefersDelivery: a stalled node's traffic is frozen, not
// lost — messages to (and from) it sit buffered and deliver in order at
// the thaw, and traffic after the stall window is unaffected.
func TestStallNodeDefersDelivery(t *testing.T) {
	n := New(Config{Seed: 1, DefaultLatency: 10 * time.Millisecond})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	var order []byte
	var times []time.Time
	b.SetHandler(func(_ string, msg []byte) {
		order = append(order, msg[0])
		times = append(times, n.Now())
	})

	start := n.Now()
	n.StallNode("b", 100*time.Millisecond)
	if !n.Stalled("b") {
		t.Fatal("Stalled false inside the window")
	}
	a.Send("b", []byte{1})
	a.Send("b", []byte{2})
	n.RunFor(50 * time.Millisecond)
	if len(order) != 0 {
		t.Fatalf("delivered %d messages mid-stall", len(order))
	}
	n.RunFor(100 * time.Millisecond)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("post-thaw backlog = %v, want [1 2]", order)
	}
	for i, at := range times {
		if d := at.Sub(start); d != 100*time.Millisecond {
			t.Fatalf("message %d delivered at %v, want the thaw at 100ms", i, d)
		}
	}
	if n.Stalled("b") {
		t.Fatal("Stalled true after the window")
	}
	// Nothing was dropped: the stall defers, Kill/Outage lose.
	if st := n.Stats(); st.Dropped != 0 || st.Delivered != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// After the thaw, latency is back to normal.
	start = n.Now()
	a.Send("b", []byte{3})
	n.Run(0)
	if d := times[2].Sub(start); d != 10*time.Millisecond {
		t.Fatalf("post-stall delivery at %v, want 10ms", d)
	}

	// A stalled *sender* is frozen too: its outbound bytes drain at the
	// thaw.
	start = n.Now()
	n.StallNode("a", 80*time.Millisecond)
	a.Send("b", []byte{4})
	n.Run(0)
	if d := times[3].Sub(start); d != 80*time.Millisecond {
		t.Fatalf("stalled sender delivered at %v, want the thaw at 80ms", d)
	}
}

// TestStallNodeOverlap: overlapping stalls extend to the latest end.
func TestStallNodeOverlap(t *testing.T) {
	n := New(Config{Seed: 1, DefaultLatency: time.Millisecond})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	var at time.Time
	b.SetHandler(func(string, []byte) { at = n.Now() })

	start := n.Now()
	n.StallNode("b", 100*time.Millisecond)
	n.StallNode("b", 30*time.Millisecond) // shorter overlap must not shrink
	a.Send("b", []byte{1})
	n.Run(0)
	if d := at.Sub(start); d != 100*time.Millisecond {
		t.Fatalf("delivered at %v, want 100ms", d)
	}
}

// TestReorderOvertakes checks that with reordering enabled some messages
// arrive out of send order, each exactly once (the at-most-once delivery
// transport.Endpoint promises), and that SetReorder(0, 0) restores
// strict FIFO-per-link delivery.
func TestReorderOvertakes(t *testing.T) {
	n := New(Config{Seed: 5, DefaultLatency: 5 * time.Millisecond})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	var order []byte
	b.SetHandler(func(_ string, msg []byte) { order = append(order, msg[0]) })

	n.SetReorder(0.5, 50*time.Millisecond)
	for i := 0; i < 64; i++ {
		a.Send("b", []byte{byte(i)})
	}
	n.Run(0)
	if len(order) != 64 {
		t.Fatalf("delivered %d/64", len(order))
	}
	var got [64]int
	for _, m := range order {
		got[m]++
	}
	for i, c := range got {
		if c != 1 {
			t.Fatalf("message %d delivered %d times, want once", i, c)
		}
	}
	inverted := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inverted++
		}
	}
	if inverted == 0 {
		t.Fatal("reordering enabled but delivery stayed in send order")
	}

	order = nil
	n.SetReorder(0, 0)
	for i := 0; i < 64; i++ {
		a.Send("b", []byte{byte(i)})
	}
	n.Run(0)
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatal("reordering persisted after SetReorder(0, 0)")
		}
	}
}
