package wire

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mind/internal/bitstr"
	"mind/internal/schema"
)

// prims is one of each primitive the codec walks.
type prims struct {
	u8      uint8
	yes, no bool
	uv      uint64
	u32     uint32
	u64     uint64
	b       []byte
	s       string
	code    bitstr.Code
	vs      []uint64
}

func (p *prims) fields(c *codec) {
	c.U8(&p.u8)
	c.Bool(&p.yes)
	c.Bool(&p.no)
	c.Uvarint(&p.uv)
	c.U32(&p.u32)
	c.U64(&p.u64)
	c.Bytes(&p.b)
	c.String(&p.s)
	c.Code(&p.code)
	c.U64s(&p.vs)
}

// decoder returns a codec reading buf.
func decoder(buf []byte) *codec { return &codec{buf: buf, dec: true} }

func TestCodecPrimitives(t *testing.T) {
	in := prims{u8: 7, yes: true, uv: 1234567890123, u32: 1 << 31, u64: ^uint64(0),
		b: []byte{1, 2, 3}, s: "héllo", code: bitstr.MustParse("0110"), vs: []uint64{9, 8, 7}}
	enc := &codec{}
	in.fields(enc)
	var out prims
	dec := decoder(enc.buf[:enc.off])
	out.fields(dec)
	if dec.err != nil || dec.remaining() != 0 {
		t.Fatalf("decode: err %v, %d bytes left", dec.err, dec.remaining())
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("one walk, two directions:\n got %+v\nwant %+v", out, in)
	}
}

func TestReaderStickyError(t *testing.T) {
	c := decoder([]byte{1})
	var u64 uint64
	c.U64(&u64) // fails: short
	if c.err == nil {
		t.Fatal("no error on short read")
	}
	// Subsequent reads leave their targets zero without panicking.
	var out prims
	out.fields(c)
	if !reflect.DeepEqual(out, prims{}) {
		t.Fatalf("post-error reads not zero: %+v", out)
	}
	if _, err := Decode([]byte{byte(KindHeartbeat), 1}); err == nil {
		t.Fatal("Decode must report the error")
	}
}

func TestReaderTrailingBytes(t *testing.T) {
	data := append(Encode(&HistReportAck{ReqID: 1}), 2)
	if _, err := Decode(data); err == nil {
		t.Fatal("trailing bytes not reported")
	}
}

func TestReaderHostileLengths(t *testing.T) {
	// A huge declared length must not allocate.
	huge := binary.AppendUvarint(nil, 1<<40)
	var out prims
	c := decoder(huge)
	if c.Bytes(&out.b); out.b != nil || c.err == nil {
		t.Fatal("hostile bytes length accepted")
	}
	c = decoder(huge)
	if c.U64s(&out.vs); len(out.vs) != 0 || c.err == nil {
		t.Fatal("hostile slice length accepted")
	}
	c = decoder(huge)
	if c.String(&out.s); out.s != "" || c.err == nil {
		t.Fatal("hostile string length accepted")
	}
	// Within the cap but past the input is refused the same way.
	c = decoder(append(binary.AppendUvarint(nil, 5), 1, 2, 3, 4))
	if c.U64s(&out.vs); len(out.vs) != 0 || c.err == nil {
		t.Fatal("slice longer than its input accepted")
	}
}

func TestCodeSanitizedOnDecode(t *testing.T) {
	// A code with stray bits past its length must decode equal to the
	// clean code.
	var code bitstr.Code
	c := decoder([]byte{3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	c.Code(&code)
	if c.err != nil || !code.Equal(bitstr.MustParse("111")) {
		t.Fatalf("decoded dirty code = %v (err %v)", code, c.err)
	}
	// Overlong code length is an error.
	c = decoder([]byte{200, 0, 0, 0, 0, 0, 0, 0, 0})
	c.Code(&code)
	if c.err == nil {
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
	enc := &codec{}
	enc.Schema(&s)
	var got *schema.Schema
	dec := decoder(enc.buf[:enc.off])
	dec.Schema(&got)
	if dec.err != nil || dec.remaining() != 0 {
		t.Fatalf("decode: err %v, %d bytes left", dec.err, dec.remaining())
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("schema round trip: %+v != %+v", got, s)
	}
	// The attribute cap is a schema rule, not only an allocation guard.
	wide := &schema.Schema{Tag: "w", Attrs: make([]schema.Attr, 257)}
	enc = &codec{}
	enc.Schema(&wide)
	dec = decoder(enc.buf[:enc.off])
	if dec.Schema(&got); dec.err == nil {
		t.Fatal("257-attribute schema accepted")
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
		&Heartbeat{From: ni, VerDigest: 0xdeadbeef},
		&Takeover{From: ni, OldCode: c.Append(0), Dead: c.Append(1), Epoch: 5, DeadAddr: "d"},
		&LivenessProbe{ReqID: 7, Asker: ni, Suspect: NodeInfo{Addr: "s", Code: c}, Hops: 1},
		&LivenessReply{ReqID: 7, Alive: true},
		&InsertRun{OriginAddr: "o", Index: "idx", Version: 3, TreeEpoch: 1<<16 | 7, Attempt: 1,
			Rows: groupsOf(schema.Record{8, c.Uint64() << 60, 4, 2, 1, 2, 3, 4})},
		&InsertAcks{StoredAt: ni, Rows: groupsOf(schema.Record{8, 4})},
		&ReplicateRun{Index: "idx", Version: 3, OwnerCode: c, Recs: groupsOf(schema.Record{1, 2, 3, 4})},
		&Query{ReqID: 9, OriginAddr: "o", Index: "idx", Versions: []uint64{1, 2}, Rect: rect, Target: c, Hops: 1, TreeEpoch: 4},
		&SubQuery{ReqID: 9, OriginAddr: "o", Index: "idx", Versions: []uint64{1}, Rect: rect, RegionCode: c, Hops: 2, Historic: true, Attempt: 2, TreeEpoch: 4},
		&QueryResp{ReqID: 9, From: ni, HasCover: true, Cover: c, Versions: []uint64{0, 1}, Recs: groupsOf(schema.Record{1, 2}, schema.Record{3, 4}), Hops: 3},
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
		&ClientQueryResp{ReqID: 25, Complete: true, Responders: 3, Recs: []schema.Record{{1, 2}}},
		&ClientVersions{ReqID: 30},
		&ClientVersionsResp{ReqID: 30, Addr: "n", Code: "01", Epoch: 4,
			Entries: []TreeSyncEntry{{Index: "idx", Version: 2, Epoch: 1<<16 | 5}}},
		&ClientAgg{ReqID: 33, Index: "idx", Rect: rect, TopK: 16},
		&ClientAggResp{ReqID: 33, Complete: true, Responders: 4, Exact: true,
			Count: 42, Sums: []uint64{1, 2, 3, 4}, SketchN: 42, Floor: 0,
			Keys: []uint64{9}, Counts: []uint64{42}, Errs: []uint64{0}},
		&TriggerInstall{TriggerID: 26, Subscriber: "s", Index: "idx", Rect: rect, Target: c, Hops: 1},
		&TriggerFire{TriggerID: 27, Index: "idx", From: ni, ReqID: 5, Rec: []uint64{9, 9}},
		&TriggerRemove{OpID: 28, TriggerID: 27},
		&RetireVersion{OpID: 29, Index: "idx", Version: 3},
		&RegionRecall{OpID: 34, Region: c},
		&Batch{Msgs: [][]byte{Encode(&DropIndex{OpID: 1, Tag: "x"}), Encode(&HistReportAck{ReqID: 2})}},
		&StreamStatus{Seq: 35, Received: 1000, Accepted: 990, Dropped: 10, Acked: 980, Failed: 5, Queued: 5, Backpressure: true},
	}
}

// registered lists every kind Decode accepts, in kind order.
func registered() []Kind {
	var ks []Kind
	for k, e := range kinds {
		if e.new != nil {
			ks = append(ks, Kind(k))
		}
	}
	return ks
}

// sample returns the allMessages instance of kind k.
func sample(t testing.TB, k Kind) Message {
	for _, m := range allMessages() {
		if m.Kind() == k {
			return m
		}
	}
	t.Fatalf("registered kind %s has no sample in allMessages", k)
	return nil
}

// TestAllKindsCovered holds the registry and the samples together: every
// registered kind has a sample and a constructor that builds that kind,
// every sample is of a registered kind, and names are unique.
func TestAllKindsCovered(t *testing.T) {
	for _, k := range registered() {
		sample(t, k)
		if got := kinds[k].new().Kind(); got != k {
			t.Errorf("kinds[%s] constructs a %s", k, got)
		}
	}
	seen := map[Kind]bool{}
	for _, m := range allMessages() {
		if kinds[m.Kind()].new == nil {
			t.Errorf("sample %T is of unregistered kind %d", m, m.Kind())
		}
		if seen[m.Kind()] {
			t.Errorf("kind %s has two samples", m.Kind())
		}
		seen[m.Kind()] = true
	}
	named := map[string]Kind{}
	for k, e := range kinds {
		if e.name == "" {
			if e.new != nil {
				t.Errorf("registered kind %d has no name", k)
			}
			continue
		}
		if prev, dup := named[e.name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, e.name)
		}
		named[e.name] = Kind(k)
	}
}

func TestAllMessagesRoundTrip(t *testing.T) {
	for _, k := range registered() {
		m := sample(t, k)
		data := Encode(m)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", k, err)
		}
		if got.Kind() != k {
			t.Fatalf("%s: kind changed to %s", k, got.Kind())
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s round trip:\n got %#v\nwant %#v", k, got, m)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("empty message accepted")
	}
	for k, e := range kinds {
		if e.new == nil {
			if _, err := Decode([]byte{byte(k), 0, 0}); err == nil {
				t.Errorf("unregistered kind %d accepted", k)
			}
		}
	}
	// Truncated payload of every message type must error, not panic.
	for _, k := range registered() {
		data := Encode(sample(t, k))
		for cut := 1; cut < len(data); cut += 1 + len(data)/7 {
			if _, err := Decode(data[:cut]); err == nil {
				// Some prefixes may legitimately decode if trailing
				// fields are zero-valued — but Decode rejects trailing
				// garbage, so a clean decode of a strict prefix means the
				// prefix was a complete valid encoding. Verify by
				// re-encoding.
				got, _ := Decode(data[:cut])
				if got != nil && len(Encode(got)) == cut {
					continue
				}
				t.Errorf("%s: truncation at %d/%d accepted", k, cut, len(data))
			}
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
	if _, err := Decode(binary.AppendUvarint([]byte{byte(KindBatch)}, 1<<40)); err == nil {
		t.Fatal("hostile batch count accepted")
	}
	// Empty sub-message is invalid.
	if _, err := Decode([]byte{byte(KindBatch), 1, 0}); err == nil {
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
	for _, k := range registered() {
		if k.String() == "" || k.String() != kinds[k].name {
			t.Errorf("kind %d prints %q, registered as %q", k, k.String(), kinds[k].name)
		}
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Errorf("unregistered kind prints %q", got)
	}
}
