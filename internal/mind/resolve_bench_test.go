package mind

import (
	"math"
	"math/rand"
	"testing"

	"mind/internal/embed"
	"mind/internal/schema"
	"mind/internal/wire"
)

// wideSample is one node's day of 37 500 Index-2 records (destination
// prefixes Zipf(1.1) over 4 096 /24s, octets log-uniform in [2⁶, 2²¹],
// in time order, as the benchmark preloads them) and the pieces of the
// 144 ten-minute windows over every prefix that cover it — ≈ 260
// records an answer.
func wideSample() (*index, []piece) {
	const n = 37500
	sch := schema.Index2(86400)
	ix := newIndex(sch, embed.Uniform(sch.Bounds()))
	r := rand.New(rand.NewSource(45))
	z := rand.NewZipf(r, 1.1, 1, 4095)
	for i := 0; i < n; i++ {
		octets := uint64(math.Exp(math.Log(1<<6) + r.Float64()*(math.Log(1<<21)-math.Log(1<<6))))
		ix.primary.Insert(0, schema.Record{z.Uint64() * 0x9E3779B1 & 0xffffff00, uint64(i) * 86400 / n, octets, r.Uint64() >> 32, uint64(r.Intn(64))})
	}
	bounds := sch.Bounds()
	pieces := make([]piece, 144)
	for i := range pieces {
		pieces[i] = piece{versions: []uint64{0}, rect: schema.Rect{Lo: []uint64{0, uint64(i) * 600, 0}, Hi: []uint64{bounds[0], uint64(i)*600 + 599, bounds[2]}}}
	}
	return ix, pieces
}

// TestWideAnswerBytes is the wire-size gate on a responder's answers:
// the 144 answers of wideSample, encoded as query-resp frames, take at
// most 12.79 bytes per record (12.18 when every batch was framed over
// its selection alone, + 5 %); packing straddled leaves at their own
// frames may widen a column, not the answer. It logs the groups per
// answer beside the bytes.
func TestWideAnswerBytes(t *testing.T) {
	ix, pieces := wideSample()
	recs, frameBytes, groups := 0, 0, 0
	for _, p := range pieces {
		m := recordKind{}.resolve(nil, ix, p, answer{}, false).(*wire.QueryResp)
		frameBytes += len(wire.Encode(m))
		recs += m.Recs.Len()
		for _, run := range m.Recs.Runs() {
			for off := 0; off < len(run); groups++ {
				_, _, size := wire.DecodeGroup(run[off:], nil)
				off += size
			}
		}
	}
	perRec := float64(frameBytes) / float64(recs)
	t.Logf("%d answers of %.1f records: %.2f B per record, %.1f groups per answer", len(pieces), float64(recs)/float64(len(pieces)), perRec, float64(groups)/float64(len(pieces)))
	if recs != 37500 {
		t.Fatalf("the windows answer %d records, want every one of the 37 500", recs)
	}
	if perRec > 12.79 {
		t.Fatalf("answers take %.2f B per record, the bound is 12.79", perRec)
	}
}

// BenchmarkResolveWide times a responder's share of a wide query on
// wideSample: from the store's batches to the encoded query-resp frame
// (encode), one decoded batch packed from
// its rows into a group alone (pack, the path a tail's and a replica
// store's batches take), and the frame checked as an originator decodes
// it (check).
func BenchmarkResolveWide(b *testing.B) {
	sch := schema.Index2(86400)
	ix, pieces := wideSample()
	b.Run("encode", func(b *testing.B) {
		recs, frameBytes := 0, 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := recordKind{}.resolve(nil, ix, pieces[i%len(pieces)], answer{}, false).(*wire.QueryResp)
			f := wire.Encode(m)
			recs, frameBytes = recs+m.Recs.Len(), frameBytes+len(f)
			wire.RecycleBuf(f)
		}
		b.ReportMetric(float64(recs)/float64(b.N), "recs/op")
		b.ReportMetric(float64(frameBytes)/float64(max(recs, 1)), "B/rec")
	})
	// The batches of every window, copied, to time the packing alone.
	type batch struct {
		rows []uint64
		sel  []int32
	}
	var batches []batch
	for _, p := range pieces {
		ix.primary.Get(0).VisitBatches(p.rect, func(b *schema.Batch) {
			rows, sel := b.Rows()
			batches = append(batches, batch{append([]uint64(nil), rows...), append([]int32(nil), sel...)})
		})
	}
	// A batch is packed while the visit's decode of it is fresh in the
	// cache, so the packing replays 16 of them, about 20 KB of rows.
	hot := batches[:16]
	b.Run("pack", func(b *testing.B) {
		b.ReportAllocs()
		var l wire.Groups
		rows := 0
		for i := 0; i < b.N; i++ {
			if i%1024 == 0 {
				l = wire.Groups{}
			}
			l.AppendRows(hot[i%len(hot)].rows, hot[i%len(hot)].sel, sch.Arity())
			rows += len(hot[i%len(hot)].sel)
		}
		b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
	})
	frames := make([][]byte, len(pieces))
	for i, p := range pieces {
		frames[i] = wire.Encode(recordKind{}.resolve(nil, ix, p, answer{}, false))
	}
	b.Run("check", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.Decode(frames[i%len(frames)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkResolveNarrow times a responder's share of a narrow query on
// wideSample: one stored record's destination prefix over the two
// minutes around it, resolved from the store and encoded as a
// query-resp frame — a few records, most of the answer header.
func BenchmarkResolveNarrow(b *testing.B) {
	ix, _ := wideSample()
	var pieces []piece
	bounds := ix.sch.Bounds()
	ix.primary.Get(0).Visit(schema.Rect{Lo: []uint64{0, 0, 0}, Hi: bounds}, func(rec schema.Record) {
		if t := rec[1]; len(pieces) < 256 {
			pieces = append(pieces, piece{versions: []uint64{0}, rect: schema.Rect{
				Lo: []uint64{rec[0], max(t, 60) - 60, 0}, Hi: []uint64{rec[0], t + 60, bounds[2]}}})
		}
	})
	recs := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := recordKind{}.resolve(nil, ix, pieces[i%len(pieces)], answer{}, false).(*wire.QueryResp)
		recs += m.Recs.Len()
		wire.RecycleBuf(wire.Encode(m))
	}
	b.ReportMetric(float64(recs)/float64(b.N), "recs/op")
}
