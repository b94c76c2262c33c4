package wire

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mind/internal/bitstr"
	"mind/internal/schema"
)

func TestCodecPrimitives(t *testing.T) {
	w := NewWriter()
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.Uvarint(1234567890123)
	w.U64(^uint64(0))
	w.F64(3.5)
	w.BytesField([]byte{1, 2, 3})
	w.String("héllo")
	w.Code(bitstr.MustParse("0110"))
	w.U64Slice([]uint64{9, 8, 7})

	r := NewReader(w.Bytes())
	if r.U8() != 7 || !r.Bool() || r.Bool() {
		t.Fatal("u8/bool wrong")
	}
	if r.Uvarint() != 1234567890123 || r.U64() != ^uint64(0) || r.F64() != 3.5 {
		t.Fatal("numeric wrong")
	}
	if b := r.BytesField(); len(b) != 3 || b[2] != 3 {
		t.Fatal("bytes wrong")
	}
	if r.String() != "héllo" {
		t.Fatal("string wrong")
	}
	if r.Code().String() != "0110" {
		t.Fatal("code wrong")
	}
	if s := r.U64Slice(); len(s) != 3 || s[0] != 9 {
		t.Fatal("slice wrong")
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.U64() // fails: short
	if r.Err() == nil {
		t.Fatal("no error on short read")
	}
	// Subsequent reads return zero values without panicking.
	if r.U8() != 0 || r.Uvarint() != 0 || r.String() != "" || r.BytesField() != nil {
		t.Fatal("post-error reads not zero")
	}
	if r.Finish() == nil {
		t.Fatal("Finish must report error")
	}
}

func TestReaderTrailingBytes(t *testing.T) {
	w := NewWriter()
	w.U8(1)
	w.U8(2)
	r := NewReader(w.Bytes())
	r.U8()
	if err := r.Finish(); err == nil {
		t.Fatal("trailing bytes not reported")
	}
}

func TestReaderHostileLengths(t *testing.T) {
	// A huge declared length must not allocate.
	w := NewWriter()
	w.Uvarint(1 << 40)
	r := NewReader(w.Bytes())
	if b := r.BytesField(); b != nil || r.Err() == nil {
		t.Fatal("hostile bytes length accepted")
	}
	r2 := NewReader(w.Bytes())
	if s := r2.U64Slice(); s != nil || r2.Err() == nil {
		t.Fatal("hostile slice length accepted")
	}
	r3 := NewReader(w.Bytes())
	if s := r3.String(); s != "" || r3.Err() == nil {
		t.Fatal("hostile string length accepted")
	}
}

func TestCodeSanitizedOnDecode(t *testing.T) {
	// A code with stray bits past its length must decode equal to the
	// clean code.
	w := NewWriter()
	w.U8(3)
	w.U64(^uint64(0))
	r := NewReader(w.Bytes())
	c := r.Code()
	if !c.Equal(bitstr.MustParse("111")) {
		t.Fatalf("decoded dirty code = %v", c)
	}
	// Overlong code length is an error.
	w2 := NewWriter()
	w2.U8(200)
	w2.U64(0)
	r2 := NewReader(w2.Bytes())
	r2.Code()
	if r2.Err() == nil {
		t.Fatal("overlong code accepted")
	}
}

func testSchema() *schema.Schema {
	return &schema.Schema{
		Tag: "idx",
		Attrs: []schema.Attr{
			{Name: "dst", Kind: schema.KindIPv4},
			{Name: "ts", Kind: schema.KindTime, Max: 86400},
			{Name: "size", Kind: schema.KindUint, Max: 5024},
			{Name: "src", Kind: schema.KindIPv4},
		},
		IndexDims: 3,
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	s := testSchema()
	w := NewWriter()
	EncodeSchema(w, s)
	r := NewReader(w.Bytes())
	got := DecodeSchema(r)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("schema round trip: %+v != %+v", got, s)
	}
}

// allMessages returns one populated instance of every message type.
func allMessages() []Message {
	c := bitstr.MustParse("0110")
	ni := NodeInfo{Addr: "node-7", Code: c}
	rect := schema.Rect{Lo: []uint64{1, 2, 3}, Hi: []uint64{10, 20, 30}}
	return []Message{
		&JoinLookup{ReqID: 1, JoinerAddr: "j", Target: c, Hops: 3},
		&JoinLookupResp{ReqID: 2, Self: ni, Neighbors: []NodeInfo{ni, {Addr: "x", Code: bitstr.MustParse("1")}}},
		&JoinRequest{ReqID: 3, JoinerAddr: "j"},
		&JoinPrepare{Target: ni},
		&JoinPrepareResp{From: ni, TargetCode: c, Approve: true},
		&JoinAbort{Target: ni},
		&JoinAccept{ReqID: 4, NewCode: c.Append(1), Sibling: ni, Neighbors: []NodeInfo{ni}, Epoch: 9,
			Indices: []IndexDef{{Schema: testSchema(), Versions: []VersionDef{{Version: 1, Tree: []byte{1, 2}, Epoch: 3}}}}},
		&JoinReject{ReqID: 5, Reason: "busy"},
		&JoinCommit{OldCode: c, Target: ni, Joiner: NodeInfo{Addr: "j", Code: c.Append(1)}},
		&Heartbeat{From: ni, Seq: 42, VerDigest: 0xdeadbeef},
		&HeartbeatAck{From: ni, Seq: 42, VerDigest: 0xdeadbeef},
		&Takeover{From: ni, OldCode: c.Append(0), Dead: c.Append(1), Epoch: 5, DeadAddr: "d"},
		&RingProbe{ProbeID: 6, Origin: ni, Target: c, MatchLen: 2, TTL: 3, Ring: 1, Payload: []byte{9, 9}},
		&RingResumed{ProbeID: 6},
		&LivenessProbe{ReqID: 7, Asker: ni, Suspect: NodeInfo{Addr: "s", Code: c}, Hops: 1},
		&LivenessReply{ReqID: 7, Alive: true},
		&Insert{ReqID: 8, OriginAddr: "o", Index: "idx", Version: 3, RecID: 99, Rec: []uint64{1, 2, 3, 4}, Target: c, Hops: 2, Attempt: 1, TreeEpoch: 1<<16 | 7},
		&InsertAck{ReqID: 8, StoredAt: ni, Hops: 4},
		&Replicate{Index: "idx", Version: 3, RecID: 99, Rec: []uint64{1, 2, 3, 4}, OwnerCode: c},
		&Query{ReqID: 9, OriginAddr: "o", Index: "idx", Versions: []uint64{1, 2}, Rect: rect, Target: c, Hops: 1, TreeEpoch: 4},
		&SubQuery{ReqID: 9, OriginAddr: "o", Index: "idx", Versions: []uint64{1}, Rect: rect, RegionCode: c, Hops: 2, Historic: true, Attempt: 2, TreeEpoch: 4},
		&QueryResp{ReqID: 9, From: ni, HasCover: true, Cover: c, Versions: []uint64{0, 1}, RecID: []uint64{5, 6}, Recs: [][]uint64{{1, 2}, {3, 4}}, Hops: 3},
		&CreateIndex{OpID: 10, Def: IndexDef{Schema: testSchema(), Versions: []VersionDef{{Version: 0, Tree: []byte{7}}}}},
		&DropIndex{OpID: 11, Tag: "idx"},
		&HistReport{Index: "idx", Day: 12, NodeAddr: "n", Hist: []byte{1, 2, 3}, Hops: 5, ReqID: 31},
		&HistInstall{OpID: 13, Index: "idx", Version: 13, Tree: []byte{4, 5}, Epoch: 2<<16 | 9},
		&HistReportAck{ReqID: 31},
		&TreePull{From: "n", Index: "idx", Version: 13},
		&TreePush{Index: "idx", Version: 13, Epoch: 2<<16 | 9, Tree: []byte{4, 5}},
		&TreeSyncReq{From: "n"},
		&TreeSyncResp{From: "n", Entries: []TreeSyncEntry{{Index: "idx", Version: 13, Epoch: 2<<16 | 9}}},
		&CollisionProbe{From: ni, Epoch: 6},
		&CollisionReply{From: ni, Epoch: 7},
		&CollisionHint{Peer: ni},
		&AggQuery{ReqID: 32, OriginAddr: "o", Index: "idx", Versions: []uint64{1, 2}, Rect: rect,
			RegionCode: c, TopK: 8, Hops: 2, Historic: true, Attempt: 1, TreeEpoch: 4},
		&AggResp{ReqID: 32, From: ni, HasCover: true, Cover: c, Versions: []uint64{1}, Hops: 3,
			Count: 1000, Sums: []uint64{5, 6, 7}, SketchK: 8, SketchN: 1000, Floor: 12,
			Keys: []uint64{1, 2}, Counts: []uint64{600, 300}, Errs: []uint64{0, 12}},
		&ClientInsert{ReqID: 20, Index: "idx", Rec: []uint64{1, 2, 3}},
		&ClientQuery{ReqID: 21, Index: "idx", Rect: rect},
		&ClientCreateIndex{ReqID: 22, Schema: testSchema()},
		&ClientDropIndex{ReqID: 23, Tag: "idx"},
		&ClientAck{ReqID: 24, OK: true, Error: "e", Hops: 2},
		&ClientQueryResp{ReqID: 25, Complete: true, Responders: 3, Recs: [][]uint64{{1, 2}}},
		&ClientVersions{ReqID: 30},
		&ClientVersionsResp{ReqID: 30, Addr: "n", Code: "01", Epoch: 4,
			Entries: []TreeSyncEntry{{Index: "idx", Version: 2, Epoch: 1<<16 | 5}}},
		&ClientAgg{ReqID: 33, Index: "idx", Rect: rect, TopK: 16},
		&ClientAggResp{ReqID: 33, Complete: true, Responders: 4, Exact: true,
			Count: 42, Sums: []uint64{1, 2, 3, 4}, SketchN: 42, Floor: 0,
			Keys: []uint64{9}, Counts: []uint64{42}, Errs: []uint64{0}},
		&TriggerInstall{TriggerID: 26, Subscriber: "s", Index: "idx", Rect: rect, Target: c, Hops: 1},
		&TriggerFire{TriggerID: 27, Index: "idx", From: ni, RecID: 5, Rec: []uint64{9, 9}},
		&TriggerRemove{OpID: 28, TriggerID: 27},
		&RetireVersion{OpID: 29, Index: "idx", Version: 3},
		&RegionRecall{OpID: 34, Region: c},
		&Batch{Msgs: [][]byte{Encode(&DropIndex{OpID: 1, Tag: "x"}), Encode(&HistReportAck{ReqID: 2})}},
		&StreamStatus{Seq: 35, Received: 1000, Accepted: 990, Dropped: 10, Acked: 980, Failed: 5, Queued: 5, Backpressure: true},
	}
}

func TestClientAndTriggerKindsCovered(t *testing.T) {
	for k := KindClientInsert; k < clientKindSentinel; k++ {
		if newClientMessage(k) == nil {
			t.Errorf("newClientMessage(%s) = nil", k)
		}
	}
	for _, k := range []Kind{KindTriggerInstall, KindTriggerFire, KindTriggerRemove, KindRetireVersion} {
		if newTriggerMessage(k) == nil {
			t.Errorf("newTriggerMessage(%s) = nil", k)
		}
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestAllMessagesRoundTrip(t *testing.T) {
	for _, m := range allMessages() {
		data := Encode(m)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Kind(), err)
		}
		if got.Kind() != m.Kind() {
			t.Fatalf("%s: kind changed to %s", m.Kind(), got.Kind())
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s round trip:\n got %#v\nwant %#v", m.Kind(), got, m)
		}
	}
}

func TestAllKindsCovered(t *testing.T) {
	seen := map[Kind]bool{}
	for _, m := range allMessages() {
		seen[m.Kind()] = true
	}
	for k := KindInvalid + 1; k < kindSentinel; k++ {
		if !seen[k] {
			t.Errorf("message kind %s has no round-trip coverage", k)
		}
		if newMessage(k) == nil {
			t.Errorf("newMessage(%s) = nil", k)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("empty message accepted")
	}
	if _, err := Decode([]byte{255, 0, 0}); err == nil {
		t.Error("unknown kind accepted")
	}
	// Truncated payload of every message type must error, not panic.
	for _, m := range allMessages() {
		data := Encode(m)
		for cut := 1; cut < len(data); cut += 1 + len(data)/7 {
			if _, err := Decode(data[:cut]); err == nil {
				// Some prefixes may legitimately decode if trailing
				// fields are zero-valued — but Finish catches trailing
				// garbage, so a clean decode of a strict prefix means the
				// prefix was a complete valid encoding. Verify by
				// re-encoding.
				got, _ := Decode(data[:cut])
				if got != nil && len(Encode(got)) == cut {
					continue
				}
				t.Errorf("%s: truncation at %d/%d accepted", m.Kind(), cut, len(data))
			}
		}
	}
}

// TestQueryRespRejectsDisagreeingRecords: the originator indexes Recs by
// RecID position, so a response whose two counts differ must not decode
// (AggResp's sketch slices are held to the same rule).
func TestQueryRespRejectsDisagreeingRecords(t *testing.T) {
	ni := NodeInfo{Addr: "n", Code: bitstr.MustParse("01")}
	for _, m := range []*QueryResp{
		{ReqID: 1, From: ni, RecID: []uint64{5, 6, 7}, Recs: [][]uint64{{1, 2}}},
		{ReqID: 1, From: ni, RecID: []uint64{5}, Recs: [][]uint64{{1, 2}, {3, 4}}},
		{ReqID: 1, From: ni, RecID: []uint64{5}},
	} {
		if got, err := Decode(Encode(m)); err == nil {
			t.Errorf("decoded %d ids with %d records: %#v", len(m.RecID), len(m.Recs), got)
		}
	}
}

func TestDecodeFuzzNoPanic(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	f := func() bool {
		n := r.Intn(200)
		data := make([]byte, n)
		r.Read(data)
		// Must never panic; errors are fine.
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	var subs [][]byte
	var want []Message
	for _, m := range allMessages() {
		if m.Kind() == KindBatch {
			continue // batches do not nest
		}
		subs = append(subs, Encode(m))
		want = append(want, m)
	}
	b := &Batch{Msgs: subs}
	data := Encode(b)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("batch decode: %v", err)
	}
	gb, ok := got.(*Batch)
	if !ok {
		t.Fatalf("decoded %T, want *Batch", got)
	}
	if !reflect.DeepEqual(gb.Msgs, subs) {
		t.Fatal("batch sub-messages changed in round trip")
	}
	// Every sub-message must decode back to its original.
	for i, sub := range gb.Msgs {
		m, err := Decode(sub)
		if err != nil {
			t.Fatalf("sub %d: %v", i, err)
		}
		if !reflect.DeepEqual(m, want[i]) {
			t.Errorf("sub %d (%s) changed through batch", i, m.Kind())
		}
	}
}

func TestBatchRejectsNesting(t *testing.T) {
	inner := Encode(&Batch{Msgs: [][]byte{Encode(&DropIndex{OpID: 1, Tag: "x"})}})
	outer := Encode(&Batch{Msgs: [][]byte{inner}})
	if _, err := Decode(outer); err == nil {
		t.Fatal("nested batch accepted")
	}
}

func TestBatchRejectsHostileInput(t *testing.T) {
	// Huge declared count must not allocate.
	w := NewWriter()
	w.U8(uint8(KindBatch))
	w.Uvarint(1 << 40)
	if _, err := Decode(w.Bytes()); err == nil {
		t.Fatal("hostile batch count accepted")
	}
	// Empty sub-message is invalid.
	w2 := NewWriter()
	w2.U8(uint8(KindBatch))
	w2.Uvarint(1)
	w2.BytesField(nil)
	if _, err := Decode(w2.Bytes()); err == nil {
		t.Fatal("empty sub-message accepted")
	}
	// Truncated sub-message list is invalid.
	full := Encode(&Batch{Msgs: [][]byte{Encode(&DropIndex{OpID: 1, Tag: "x"})}})
	for cut := 1; cut < len(full); cut++ {
		if _, err := Decode(full[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(full))
		}
	}
}

func TestBatchDecodeFuzzNoPanic(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	f := func() bool {
		n := r.Intn(300)
		data := make([]byte, n+1)
		data[0] = uint8(KindBatch)
		r.Read(data[1:])
		_, _ = Decode(data) // must never panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if KindBatch.String() != "batch" {
		t.Errorf("KindBatch = %s", KindBatch)
	}
	if KindInsert.String() != "insert" {
		t.Errorf("KindInsert = %s", KindInsert)
	}
	if Kind(250).String() == "" {
		t.Error("unknown kind has empty name")
	}
}

func BenchmarkEncodeInsert(b *testing.B) {
	m := &Insert{ReqID: 8, OriginAddr: "node-abilene-chin", Index: "index1-fanout",
		Version: 3, RecID: 99, Rec: []uint64{3232243719, 86000, 1700, 167837697, 5},
		Target: bitstr.MustParse("01101001"), Hops: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Encode(m)
	}
}

func BenchmarkDecodeInsert(b *testing.B) {
	m := &Insert{ReqID: 8, OriginAddr: "node-abilene-chin", Index: "index1-fanout",
		Version: 3, RecID: 99, Rec: []uint64{3232243719, 86000, 1700, 167837697, 5},
		Target: bitstr.MustParse("01101001"), Hops: 2}
	data := Encode(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
