package wire

import (
	"math/rand"
	"testing"

	"mind/internal/bitstr"
	"mind/internal/schema"
)

// benchMessages is a representative hot-path message mix: a routed
// insert run of one, a small covering query response, and an ack.
func benchMessages() []Message {
	code := bitstr.New(0b1011, 4)
	ins := &InsertRun{OriginAddr: "10.0.0.1:7001", Index: "index1-fanout", Version: 3}
	ins.Append(81, code, 2, []uint64{123456, 77, 4242, 9})
	ack := &InsertAcks{StoredAt: NodeInfo{Addr: "10.0.0.2:7001", Code: code}}
	ack.Append(81, 2)
	return []Message{
		ins,
		&QueryResp{
			ReqID: 82, From: NodeInfo{Addr: "10.0.0.2:7001", Code: code},
			HasCover: true, Cover: code, Versions: []uint64{3},
			Recs: groupsOf(schema.Record{1, 2, 3, 4}, schema.Record{5, 6, 7, 8}, schema.Record{9, 10, 11, 12}),
			Hops: 3,
		},
		ack,
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
// keeps the buffer (no recycling).
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

// wideRecords is the answer-hop micro-benchmarks' input: n
// Index-2-shaped records (prefix, timestamp, octets, source prefix,
// node), one responder's share of a wide query.
func wideRecords(n int) []schema.Record {
	r := rand.New(rand.NewSource(21))
	recs := make([]schema.Record, n)
	for i := range recs {
		recs[i] = schema.Record{
			uint64(r.Uint32()) &^ 0xff, uint64(r.Intn(86400)), 1<<20 + uint64(r.Intn(1<<30)),
			uint64(r.Uint32()) &^ 0xff, uint64(r.Intn(8)),
		}
	}
	return recs
}

// answerHeader is a wide answer's QueryResp without its records.
func answerHeader() *QueryResp {
	return &QueryResp{
		ReqID: 82, From: NodeInfo{Addr: "127.0.0.1:40123", Code: bitstr.New(0b101, 3)},
		HasCover: true, Cover: bitstr.New(0b1011, 4), Versions: []uint64{0}, Hops: 2,
	}
}

// wideAnswer is n wide records as one responder's QueryResp.
func wideAnswer(n int) *QueryResp {
	m := answerHeader()
	m.Recs = groupsOf(wideRecords(n)...)
	return m
}

// BenchmarkEncodeQueryResp and BenchmarkDecodeQueryResp time the answer
// hop's codec on a wide answer (2 100 records × 5 attributes, scan_agg's
// mean) from records to frame and back: the encode appends the rows to
// the record list 32 at a time, as a responder does from its store's
// leaf batches, and encodes the message; the decode validates the frame
// and decodes its list. Run with -benchmem.
func BenchmarkEncodeQueryResp(b *testing.B) {
	const arity, leaf = 5, 32
	var rows []uint64
	for _, rec := range wideRecords(2100) {
		rows = append(rows, rec...)
	}
	sel := make([]int32, leaf)
	for i := range sel {
		sel[i] = int32(arity * i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := answerHeader()
		for lo := 0; lo < len(rows); lo += arity * leaf {
			batch := rows[lo:min(lo+arity*leaf, len(rows))]
			m.Recs.AppendRows(batch, sel[:len(batch)/arity], arity)
		}
		RecycleBuf(Encode(m))
	}
}

func BenchmarkDecodeQueryResp(b *testing.B) {
	data := Encode(wideAnswer(2100))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		if recs := m.(*QueryResp).Recs.Records(); len(recs) != 2100 {
			b.Fatalf("%d records decoded", len(recs))
		}
	}
}

// BenchmarkDecodeClientQueryResp times the client's share of a wide
// query: decoding the client-query-resp a node sends it, 2 083 records
// (scan_agg's mean answer) whose groups eight responders packed 17 rows
// at a time — a straddled leaf's share of a ten-minute window — and the
// originator spliced, as it does, into one list. The records are
// Index-2-shaped: destination /24s, timestamps in one ten-minute window,
// log-spread octets, source prefixes and a node id.
func BenchmarkDecodeClientQueryResp(b *testing.B) {
	const n, arity, batch, answers = 2083, 5, 17, 8
	r := rand.New(rand.NewSource(56))
	var list Groups
	for a := 0; a < answers; a++ {
		var answer Groups
		for lo := a * n / answers; lo < (a+1)*n/answers; lo += batch {
			var rows []uint64
			var sel []int32
			for i := lo; i < min(lo+batch, (a+1)*n/answers); i++ {
				sel = append(sel, int32(len(rows)))
				rows = append(rows, uint64(r.Intn(4096))<<8, 1_700_000_000+uint64(i)*600/n, uint64(64)<<r.Intn(15)+uint64(r.Intn(64)), uint64(r.Uint32()), uint64(r.Intn(64)))
			}
			answer.AppendRows(rows, sel, arity)
		}
		list.SpliceList(answer)
	}
	data := Encode(&ClientQueryResp{ReqID: 1, Complete: true, Responders: answers, List: list})
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		if recs := m.(*ClientQueryResp).Recs; len(recs) != n {
			b.Fatalf("%d records decoded", len(recs))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
}

// BenchmarkEncodeInsert and BenchmarkDecodeInsert time the write path's
// codec on a 64-record insert run, an ingest envelope's share for one
// next hop: the encode appends the records to the run, as an originator
// does, and encodes it; the decode validates the frame. Run with
// -benchmem.
func BenchmarkEncodeInsert(b *testing.B) {
	recs := wideRecords(64)
	code := bitstr.New(0b01101001, 8)
	m := &InsertRun{OriginAddr: "127.0.0.1:40123", Index: "index2-octets", Version: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Rows = Groups{}
		for j, rec := range recs {
			m.Append(uint64(j+1)<<40, code, 1, rec)
		}
		RecycleBuf(Encode(m))
	}
}

func BenchmarkDecodeInsert(b *testing.B) {
	data := Encode(insertRun(64))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
