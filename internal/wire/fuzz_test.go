package wire

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"testing"

	"mind/internal/bitstr"
	"mind/internal/schema"
)

// scatterKinds are the five messages of the scatter-gather path — the
// only ones whose payloads a peer fully controls on the query side.
var scatterKinds = []Kind{KindQuery, KindSubQuery, KindQueryResp, KindAggQuery, KindAggResp}

// genScatterMessage builds a well-formed message of scatterKinds[k] from
// the random stream: every field populated, parallel slices agreeing.
func genScatterMessage(k int, r *rand.Rand) Message {
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
	switch scatterKinds[k] {
	case KindQuery:
		return &Query{ReqID: r.Uint64(), OriginAddr: ni.Addr, Index: "idx", Versions: u64s(3),
			Rect: rect, Target: code(), Hops: uint8(r.Intn(256)), TreeEpoch: r.Uint64()}
	case KindSubQuery:
		return &SubQuery{ReqID: r.Uint64(), OriginAddr: ni.Addr, Index: "idx", Versions: u64s(3),
			Rect: rect, RegionCode: code(), Hops: uint8(r.Intn(256)), Historic: r.Intn(2) == 1,
			Attempt: uint8(r.Intn(256)), TreeEpoch: r.Uint64()}
	case KindQueryResp:
		m := &QueryResp{ReqID: r.Uint64(), From: ni, HasCover: r.Intn(2) == 1, Cover: code(),
			Versions: u64s(3), RecID: u64s(6), Hops: uint8(r.Intn(256))}
		m.Recs = make([][]uint64, len(m.RecID))
		for i := range m.Recs {
			m.Recs[i] = u64s(5)
		}
		return m
	case KindAggQuery:
		return &AggQuery{ReqID: r.Uint64(), OriginAddr: ni.Addr, Index: "idx", Versions: u64s(3),
			Rect: rect, RegionCode: code(), TopK: r.Uint32(), Hops: uint8(r.Intn(256)),
			Historic: r.Intn(2) == 1, Attempt: uint8(r.Intn(256)), TreeEpoch: r.Uint64()}
	default:
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
}

// FuzzScatterWire holds the scatter-gather codecs to two contracts. A
// generated message survives encode→decode→encode byte-identically; and
// arbitrary bytes under each kind tag either fail to decode or decode to
// a message the node can safely index (parallel slices agree) whose
// re-encoding is a fixed point.
func FuzzScatterWire(f *testing.F) {
	for _, m := range allMessages() {
		for k, kind := range scatterKinds {
			if m.Kind() == kind {
				f.Add(uint8(k), Encode(m)[1:])
			}
		}
	}
	f.Fuzz(func(t *testing.T, k uint8, payload []byte) {
		ki := int(k) % len(scatterKinds)

		h := fnv.New64a()
		h.Write(payload)
		gen := genScatterMessage(ki, rand.New(rand.NewSource(int64(h.Sum64()))))
		enc := Encode(gen)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("generated %s does not decode: %v\n%#v", gen.Kind(), err, gen)
		}
		if again := Encode(dec); !bytes.Equal(again, enc) {
			t.Fatalf("%s round trip not byte-identical:\n first %x\nsecond %x", gen.Kind(), enc, again)
		}

		m, err := Decode(append([]byte{byte(scatterKinds[ki])}, payload...))
		if err != nil {
			return
		}
		switch m := m.(type) {
		case *QueryResp:
			if len(m.RecID) != len(m.Recs) {
				t.Fatalf("QueryResp decoded with %d ids, %d records", len(m.RecID), len(m.Recs))
			}
		case *AggResp:
			if len(m.Counts) != len(m.Keys) || len(m.Errs) != len(m.Keys) {
				t.Fatalf("AggResp decoded with disagreeing sketch slices")
			}
		}
		canon := Encode(m)
		m2, err := Decode(canon)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", m.Kind(), err)
		}
		if !bytes.Equal(Encode(m2), canon) {
			t.Fatalf("%s re-encoding is not a fixed point", m.Kind())
		}
	})
}
