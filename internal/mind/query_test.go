package mind

import (
	"math/rand"
	"testing"

	"mind/internal/schema"
	"mind/internal/wire"
)

// TestIDSet checks the dedup set against a map: what add reports, over
// ids that repeat, include 0 and arrive in reserved batches of every
// size from none to thousands.
func TestIDSet(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var s idSet
	seen := map[uint64]bool{}
	for batch := 0; batch < 200; batch++ {
		n := r.Intn(1 << uint(r.Intn(13)))
		s.reserve(n)
		for i := 0; i < n; i++ {
			id := r.Uint64() >> uint(r.Intn(64)) // small ids repeat, and 0 turns up
			if got, want := s.add(id), !seen[id]; got != want {
				t.Fatalf("batch %d: add(%#x) = %v with %d ids in the set, want %v", batch, id, got, len(seen), want)
			}
			seen[id] = true
		}
		if 2*s.used > len(s.slots) {
			t.Fatalf("batch %d: %d ids in %d slots, load over 1/2", batch, s.used, len(s.slots))
		}
	}
	if !seen[0] {
		t.Fatal("id 0 never drawn")
	}
}

// wideAnswers splits n distinct Index-2-shaped records evenly over parts
// responders' answers.
func wideAnswers(parts, n int) []*wire.QueryResp {
	r := rand.New(rand.NewSource(21))
	out := make([]*wire.QueryResp, parts)
	for p := range out {
		m := &wire.QueryResp{Recs: make([]schema.Record, n/parts)}
		for i := range m.Recs {
			m.Recs[i] = schema.Record{
				uint64(r.Uint32()) &^ 0xff, uint64(r.Intn(86400)), 1<<20 + uint64(r.Intn(1<<30)),
				uint64(r.Uint32()) &^ 0xff, uint64(r.Intn(8)),
			}
		}
		out[p] = m
	}
	return out
}

// TestRecordAccDedups: an answer repeated (fail-over, retransmission)
// and a record repeated inside one answer contribute once, in arrival
// order, and a single answer's list is handed on as it stands.
func TestRecordAccDedups(t *testing.T) {
	answers := wideAnswers(3, 300)
	var want []schema.Record
	for _, m := range answers {
		want = append(want, m.Recs...)
	}
	again := *answers[0]
	again.Recs = append([]schema.Record(nil), again.Recs...)
	answers[1].Recs = append(answers[1].Recs, answers[1].Recs[7])

	var got QueryResult
	acc := &recordAcc{cb: func(res QueryResult) { got = res }}
	for _, m := range []*wire.QueryResp{answers[0], answers[1], &again, answers[2]} {
		if !acc.admit(answer{body: m}, nil) {
			t.Fatal("record answer refused")
		}
	}
	acc.deliver(outcome{complete: true})
	if len(got.Records) != len(want) {
		t.Fatalf("%d records delivered, want %d", len(got.Records), len(want))
	}
	for i := range want {
		if &got.Records[i][0] != &want[i][0] {
			t.Fatalf("record %d is %v, want %v (the same view)", i, got.Records[i], want[i])
		}
	}

	one := wideAnswers(1, 50)[0]
	acc = &recordAcc{cb: func(res QueryResult) { got = res }}
	acc.admit(answer{body: one}, nil)
	acc.deliver(outcome{complete: true})
	if len(got.Records) != 50 || &got.Records[0] != &one.Recs[0] {
		t.Fatalf("a lone answer's %d records were copied, want its own list of 50", len(got.Records))
	}
}

// BenchmarkRecordAccAdmit times the originator's side of a wide query:
// four answers of 525 records admitted and the result delivered.
func BenchmarkRecordAccAdmit(b *testing.B) {
	answers := wideAnswers(4, 2100) // no duplicates, so admit's squeeze leaves them whole
	delivered := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := &recordAcc{cb: func(res QueryResult) { delivered += len(res.Records) }}
		for _, m := range answers {
			acc.admit(answer{body: m}, nil)
		}
		acc.deliver(outcome{complete: true})
	}
	if delivered != 2100*b.N {
		b.Fatalf("%d records delivered over %d queries", delivered, b.N)
	}
}

var hashSink uint64

// BenchmarkRecHash times the content id of a five-attribute record.
func BenchmarkRecHash(b *testing.B) {
	recs := wideAnswers(1, 2100)[0].Recs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink += recHash(recs[i%len(recs)])
	}
}
