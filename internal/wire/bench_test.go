package wire

import (
	"math/rand"
	"testing"

	"mind/internal/bitstr"
	"mind/internal/schema"
)

// benchMessages is a representative hot-path message mix: a routed
// insert, a small covering query response, and an insert ack.
func benchMessages() []Message {
	code := bitstr.New(0b1011, 4)
	return []Message{
		&Insert{
			ReqID: 81, OriginAddr: "10.0.0.1:7001", Index: "index1-fanout",
			Version: 3, RecID: 991, Rec: []uint64{123456, 77, 4242, 9},
			Target: code, Hops: 2,
		},
		&QueryResp{
			ReqID: 82, From: NodeInfo{Addr: "10.0.0.2:7001", Code: code},
			HasCover: true, Cover: code, Versions: []uint64{3},
			Recs: []schema.Record{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}},
			Hops: 3,
		},
		&InsertAck{ReqID: 81, StoredAt: NodeInfo{Addr: "10.0.0.2:7001", Code: code}, Hops: 2},
	}
}

// BenchmarkWireEncodePooled measures per-message encode cost and
// allocations on the hot-path mix, with encode buffers recycled the way
// the batch coalescer recycles them after a flush. Run with -benchmem;
// the allocs/op delta against main is the coalescer's steady-state win.
func BenchmarkWireEncodePooled(b *testing.B) {
	msgs := benchMessages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := Encode(msgs[i%len(msgs)])
		RecycleBuf(data)
	}
}

// BenchmarkWireEncode measures the plain encode path where the caller
// keeps the buffer (no recycling) — the per-record Insert path.
func BenchmarkWireEncode(b *testing.B) {
	msgs := benchMessages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Encode(msgs[i%len(msgs)])
	}
}

// BenchmarkWireEncodeBatch measures envelope assembly: 32 encoded
// sub-messages wrapped into one Batch, as the coalescer flushes them.
func BenchmarkWireEncodeBatch(b *testing.B) {
	msgs := benchMessages()
	subs := make([][]byte, 32)
	for i := range subs {
		subs[i] = Encode(msgs[i%len(msgs)])
	}
	env := &Batch{Msgs: subs}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := Encode(env)
		RecycleBuf(data)
	}
}

// wideAnswer is the answer-hop micro-benchmarks' input: n Index-2-shaped
// records (prefix, timestamp, octets, source prefix, node) as one
// responder's QueryResp.
func wideAnswer(n int) *QueryResp {
	r := rand.New(rand.NewSource(21))
	m := &QueryResp{
		ReqID: 82, From: NodeInfo{Addr: "127.0.0.1:40123", Code: bitstr.New(0b101, 3)},
		HasCover: true, Cover: bitstr.New(0b1011, 4), Versions: []uint64{0}, Hops: 2,
		Recs: make([]schema.Record, n),
	}
	for i := range m.Recs {
		m.Recs[i] = schema.Record{
			uint64(r.Uint32()) &^ 0xff, uint64(r.Intn(86400)), 1<<20 + uint64(r.Intn(1<<30)),
			uint64(r.Uint32()) &^ 0xff, uint64(r.Intn(8)),
		}
	}
	return m
}

// BenchmarkEncodeQueryResp and BenchmarkDecodeQueryResp time the answer
// hop's codec on a wide answer (2 100 records × 5 attributes, scan_agg's
// mean); run with -benchmem.
func BenchmarkEncodeQueryResp(b *testing.B) {
	m := wideAnswer(2100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RecycleBuf(Encode(m))
	}
}

func BenchmarkDecodeQueryResp(b *testing.B) {
	data := Encode(wideAnswer(2100))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
