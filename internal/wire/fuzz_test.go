package wire

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"mind/internal/bitstr"
	"mind/internal/schema"
)

// genScatterMessage builds a well-formed message of kind k — one of the
// five messages of the scatter-gather path, whose payloads a peer fully
// controls on the query side — from the random stream: every field
// populated, parallel slices agreeing. Other kinds yield nil.
func genScatterMessage(k Kind, r *rand.Rand) Message {
	u64s := func(max int) []uint64 {
		out := make([]uint64, r.Intn(max+1))
		for i := range out {
			out[i] = r.Uint64() >> uint(r.Intn(64))
		}
		return out
	}
	code := func() bitstr.Code {
		n := r.Intn(bitstr.MaxLen + 1)
		if n == 0 {
			return bitstr.Empty
		}
		return bitstr.New(r.Uint64()>>uint(64-n), n)
	}
	rect := schema.Rect{Lo: u64s(4), Hi: u64s(4)}
	ni := NodeInfo{Addr: string(rune('a' + r.Intn(26))), Code: code()}
	switch k {
	case KindQuery:
		return &Query{ReqID: r.Uint64(), OriginAddr: ni.Addr, Index: "idx", Versions: u64s(3),
			Rect: rect, Target: code(), Hops: uint8(r.Intn(256)), TreeEpoch: r.Uint64()}
	case KindSubQuery:
		return &SubQuery{ReqID: r.Uint64(), OriginAddr: ni.Addr, Index: "idx", Versions: u64s(3),
			Rect: rect, RegionCode: code(), Hops: uint8(r.Intn(256)), Historic: r.Intn(2) == 1,
			Attempt: uint8(r.Intn(256)), TreeEpoch: r.Uint64()}
	case KindQueryResp:
		m := &QueryResp{ReqID: r.Uint64(), From: ni, HasCover: r.Intn(2) == 1, Cover: code(),
			Versions: u64s(3), Hops: uint8(r.Intn(256))}
		for i := r.Intn(4); i > 0; i-- { // batches of one arity, up to two groups each
			recs := make([]schema.Record, 1+r.Intn(40))
			arity := r.Intn(6)
			for j := range recs {
				recs[j] = u64s(arity)[:0]
				for range arity {
					recs[j] = append(recs[j], r.Uint64()>>uint(r.Intn(65)))
				}
			}
			m.Recs.Append(recs...)
		}
		return m
	case KindAggQuery:
		return &AggQuery{ReqID: r.Uint64(), OriginAddr: ni.Addr, Index: "idx", Versions: u64s(3),
			Rect: rect, RegionCode: code(), TopK: r.Uint32(), Hops: uint8(r.Intn(256)),
			Historic: r.Intn(2) == 1, Attempt: uint8(r.Intn(256)), TreeEpoch: r.Uint64()}
	case KindAggResp:
		m := &AggResp{ReqID: r.Uint64(), From: ni, HasCover: r.Intn(2) == 1, Cover: code(),
			Versions: u64s(3), Hops: uint8(r.Intn(256)), Count: r.Uint64(), Sums: u64s(5),
			SketchK: r.Uint32(), SketchN: r.Uint64(), Floor: r.Uint64(), Keys: u64s(6)}
		m.Counts = make([]uint64, len(m.Keys))
		m.Errs = make([]uint64, len(m.Keys))
		for i := range m.Keys {
			m.Counts[i], m.Errs[i] = r.Uint64(), r.Uint64()
		}
		return m
	}
	return nil
}

// FuzzEveryKind holds every registered kind to one contract. Arbitrary
// bytes under the kind's tag either fail to decode or decode to a
// message the node can safely index (parallel slices agree, a run holds
// a record and its rows keep their kind's rule, a batch holds only
// non-empty non-batch sub-messages) that survives
// encode→decode unchanged, with a re-encoding that is a fixed point;
// nothing panics. For the five scatter-gather kinds a generated
// well-formed message also survives encode→decode→encode
// byte-identically. kind indexes the registry modulo its size, so every
// input lands on a real kind; the seeds are the registry's samples, an
// answer whose records alternate between two arities, an answer whose
// group list breaks one rule of the group form for each rule, runs of 1, 2
// and 65 records of each write-path kind (insert runs with and without
// the repeat bit), a run breaking each rule of its kind (hostileRuns), a
// heartbeat from an unjoined sender, a batch of routed messages and a
// nested batch.
func FuzzEveryKind(f *testing.F) {
	ks := registered()
	for i, k := range ks {
		f.Add(uint8(i), Encode(sample(f, k))[1:])
		switch k {
		case KindQueryResp:
			// A group per record, of alternating arities.
			f.Add(uint8(i), Encode(alternatingAnswer(8))[1:])
			for _, h := range hostileGroups() {
				f.Add(uint8(i), queryRespWith(h.bad))
			}
		case KindHeartbeat:
			// An unjoined sender's heartbeat: no code and no digest.
			f.Add(uint8(i), Encode(&Heartbeat{From: NodeInfo{Addr: "j"}})[1:])
		case KindBatch:
			// Routed messages coalesced into one write burst.
			routed := [][]byte{Encode(insertRun(2)), Encode(sample(f, KindSubQuery)), Encode(sample(f, KindTriggerInstall))}
			f.Add(uint8(i), Encode(&Batch{Msgs: routed})[1:])
			// A batch inside a batch, which must not decode.
			f.Add(uint8(i), Encode(&Batch{Msgs: [][]byte{Encode(&Batch{Msgs: routed[:1]})}})[1:])
		case KindInsert, KindReplicate, KindInsertAck:
			for _, n := range []int{1, 2, 65} {
				f.Add(uint8(i), Encode(map[Kind]Message{
					KindInsert: insertRun(n), KindReplicate: replicateRun(n), KindInsertAck: insertAcks(n),
				}[k])[1:])
				if k == KindInsert {
					f.Add(uint8(i), Encode(repeatRun(n))[1:])
				}
			}
			// A run breaking each rule of its kind.
			for _, h := range hostileRuns() {
				if Kind(h.enc[0]) == k {
					f.Add(uint8(i), h.enc[1:])
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		k := ks[int(kind)%len(ks)]

		h := fnv.New64a()
		h.Write(payload)
		if gen := genScatterMessage(k, rand.New(rand.NewSource(int64(h.Sum64())))); gen != nil {
			enc := Encode(gen)
			dec, err := Decode(enc)
			if err != nil {
				t.Fatalf("generated %s does not decode: %v\n%#v", k, err, gen)
			}
			if again := Encode(dec); !bytes.Equal(again, enc) {
				t.Fatalf("%s round trip not byte-identical:\n first %x\nsecond %x", k, enc, again)
			}
		}

		m, err := Decode(append([]byte{byte(k)}, payload...))
		if err != nil {
			return
		}
		if m.Kind() != k {
			t.Fatalf("kind byte %s decoded to a %s", k, m.Kind())
		}
		switch m := m.(type) {
		case *AggResp:
			if len(m.Counts) != len(m.Keys) || len(m.Errs) != len(m.Keys) {
				t.Fatalf("AggResp decoded with disagreeing sketch slices")
			}
		case *ClientAggResp:
			if len(m.Counts) != len(m.Keys) || len(m.Errs) != len(m.Keys) {
				t.Fatalf("ClientAggResp decoded with disagreeing sketch slices")
			}
		case *InsertRun:
			if m.Rows.Len() == 0 {
				t.Fatalf("InsertRun decoded with no records")
			}
			m.Rows.EachRow(func(row []uint64) {
				if len(row) < InsertCols || row[rowTargetLen] > bitstr.MaxLen || row[rowHops] > 255 {
					t.Fatalf("InsertRun decoded with row %v", row)
				}
			})
		case *ReplicateRun:
			if m.Recs.Len() == 0 {
				t.Fatalf("ReplicateRun decoded with no records")
			}
		case *InsertAcks:
			if m.Rows.Len() == 0 {
				t.Fatalf("InsertAcks decoded with no records")
			}
			m.Rows.EachRow(func(row []uint64) {
				if len(row) != 2 || row[1] > 255 {
					t.Fatalf("InsertAcks decoded with row %v", row)
				}
			})
		case *Batch:
			for i, sub := range m.Msgs {
				if len(sub) == 0 || Kind(sub[0]) == KindBatch {
					t.Fatalf("Batch decoded with empty or nested sub-message %d", i)
				}
			}
		}
		canon := Encode(m)
		m2, err := Decode(canon)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", k, err)
		}
		if !reflect.DeepEqual(m2, m) {
			t.Fatalf("%s changed through encode→decode:\n first %#v\nsecond %#v", k, m, m2)
		}
		if !bytes.Equal(Encode(m2), canon) {
			t.Fatalf("%s re-encoding is not a fixed point", k)
		}
	})
}

// queryRespWith is a query-resp payload (no kind byte) whose group list
// is list, as raw bytes.
func queryRespWith(list []byte) []byte {
	m := answerHeader()
	c := &codec{}
	c.Uvarint(&m.ReqID)
	c.Node(&m.From)
	c.Bool(&m.HasCover)
	c.Code(&m.Cover)
	c.U64s(&m.Versions)
	return append(append(c.buf[:c.off:c.off], list...), m.Hops)
}
