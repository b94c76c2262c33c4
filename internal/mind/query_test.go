package mind

import (
	"math/rand"
	"reflect"
	"testing"

	"mind/internal/bitstr"
	"mind/internal/schema"
	"mind/internal/wire"
)

// TestIDSet checks a genTable used as a query's content-id set against
// a map: what add reports, over ids that repeat, include 0 and arrive in
// reserved batches of every size from none to thousands.
func TestIDSet(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var s genTable[struct{}]
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
		if 2*s.n > len(s.keys) {
			t.Fatalf("batch %d: %d ids in %d slots, load over 1/2", batch, s.n, len(s.keys))
		}
	}
	if !seen[0] {
		t.Fatal("id 0 never drawn")
	}
}

// indexTwoRecords returns n distinct Index-2-shaped records.
func indexTwoRecords(n int) []schema.Record {
	r := rand.New(rand.NewSource(21))
	out := make([]schema.Record, n)
	for i := range out {
		out[i] = schema.Record{
			uint64(r.Uint32()) &^ 0xff, uint64(r.Intn(86400)), 1<<20 + uint64(r.Intn(1<<30)),
			uint64(r.Uint32()) &^ 0xff, uint64(r.Intn(8)),
		}
	}
	return out
}

// answerFrame encodes recs as one responder's query-resp frame, 32
// records to a group.
func answerFrame(recs []schema.Record) []byte {
	m := &wire.QueryResp{ReqID: 82, Versions: []uint64{0}, Hops: 2}
	m.Recs.Append(recs...)
	return wire.Encode(m)
}

// answerOf is recs as the originator sees them: one responder's answer
// decoded from its frame, its groups aliasing the frame.
func answerOf(tb testing.TB, recs []schema.Record) *wire.QueryResp {
	m, err := wire.Decode(answerFrame(recs))
	if err != nil {
		tb.Fatal(err)
	}
	return m.(*wire.QueryResp)
}

// wideFrames splits n distinct Index-2-shaped records evenly over parts
// responders' query-resp frames.
func wideFrames(parts, n int) [][]byte {
	recs := indexTwoRecords(n)
	out := make([][]byte, parts)
	for p := range out {
		out[p] = answerFrame(recs[p*n/parts : (p+1)*n/parts])
	}
	return out
}

// admitAll admits answers into a fresh accumulator, each as the given
// answer header makes it (nil: one claiming no coverage), and returns the
// list it delivers on the client-RPC path.
func admitAll(header func(i int) (answer, *coverSet), answers ...*wire.QueryResp) wire.Groups {
	var got wire.Groups
	acc := &recordAcc{cb: func(l wire.Groups, _ QueryResult) { got = l }}
	for i, m := range answers {
		a, trie := answer{}, (*coverSet)(nil)
		if header != nil {
			a, trie = header(i)
		}
		a.body = m
		acc.admit(a, trie)
	}
	acc.deliver(outcome{complete: true})
	return got
}

// covering is the header of answer i of a group, and the group's trie,
// which the engine has let it into: a cover of its own, disjoint from
// the others'.
func covering(i int) (answer, *coverSet) {
	return answer{hasCover: true, cover: bitstr.New(uint64(i), 8)}, groupTrie
}

// groupTrie stands for a version group's cover trie; admit only asks
// whether there is one.
var groupTrie = newCoverSet()

// TestRecordAccSplicesCovering: covering answers are spliced whole — one
// run per answer, the frame's own, nothing hashed — and a record stored
// twice comes back twice.
func TestRecordAccSplicesCovering(t *testing.T) {
	recs := indexTwoRecords(200)
	twice := append(append([]schema.Record{}, recs[:100]...), recs[7])
	answers := []*wire.QueryResp{answerOf(t, twice), answerOf(t, recs[100:])}
	got := admitAll(covering, answers...)
	if want := append(append([]schema.Record{}, twice...), recs[100:]...); !reflect.DeepEqual(got.Records(), want) {
		t.Fatalf("delivered %d records, want both answers whole (%d)", got.Len(), len(want))
	}
	for i, run := range got.Runs() {
		if !reflect.DeepEqual(run, answers[i].Recs.Runs()[0]) || !within(run, answers[i].Recs.Runs()[0]) {
			t.Fatalf("run %d is not answer %d's frame run", i, i)
		}
	}
	acc := &recordAcc{cb: func(wire.Groups, QueryResult) {}}
	for i, m := range answers {
		a, trie := covering(i)
		a.body = m
		acc.admit(a, trie)
	}
	if acc.byContent || acc.ids.keys != nil {
		t.Fatal("covering answers built an id table")
	}
}

// TestRecordAccDedups: once an answer that can overlap arrives — one
// delegating its region's history (no cover) or naming a subset of its
// group's versions (no trie) — the records already spliced are hashed
// and every later record is admitted once, in arrival order: an answer
// repeated, a record repeated across answers and one repeated inside an
// answer contribute once; a group of fresh records is spliced as the
// bytes it arrived in, a stretch of them as one run, and a group holding
// a duplicate has its fresh records re-packed into a group of their own;
// and Node.Query's decode of the spliced list is the records themselves.
func TestRecordAccDedups(t *testing.T) {
	recs := indexTwoRecords(300)
	first, second, third := recs[:100], recs[100:200], recs[200:]
	// Inside the second answer, in its second and third groups of 32:
	// record 107 again, and record 5 of the first.
	dupInside := append(append(append(append([]schema.Record{}, second[:50]...), second[7]), second[50:80]...), first[5])
	dupInside = append(dupInside, second[80:]...)
	// The third answer opens and closes with records already admitted:
	// its first and last groups hold a duplicate.
	dupEdges := append(append([]schema.Record{first[0]}, third...), second[99])
	answers := []*wire.QueryResp{answerOf(t, first), answerOf(t, dupInside), answerOf(t, first), answerOf(t, dupEdges)}
	// first covers its region and is spliced whole; dupInside delegates
	// history; the repeat of first names a version subset; dupEdges
	// covers another region, after the switch to content ids.
	first0, trie0 := covering(0)
	edges1, trie1 := covering(1)
	headers := []struct {
		a    answer
		trie *coverSet
	}{{first0, trie0}, {answer{hasCover: false}, groupTrie}, {answer{hasCover: true}, nil}, {edges1, trie1}}

	got := admitAll(func(i int) (answer, *coverSet) { return headers[i].a, headers[i].trie }, answers...)
	if got.Len() != len(recs) {
		t.Fatalf("%d records delivered, want %d", got.Len(), len(recs))
	}
	if dec := got.Records(); !reflect.DeepEqual(dec, recs) {
		t.Fatalf("delivered records differ from the distinct records in arrival order")
	}
	// first: one spliced run; dupInside: its first group spliced, its
	// second and third re-packed into one run, its fourth spliced; the
	// repeat of first: none; dupEdges: its first group re-packed, the two
	// between spliced as one run, its last re-packed.
	spliced := 0
	for _, run := range got.Runs() {
		for _, m := range answers {
			if within(run, m.Recs.Runs()[0]) {
				spliced++
			}
		}
	}
	if runs := len(got.Runs()); runs != 7 || spliced != 4 {
		t.Fatalf("%d runs, %d of them slices of the frames they arrived in; want 7 and 4", runs, spliced)
	}

	var res QueryResult
	acc := &recordAcc{cb: func(l wire.Groups, r QueryResult) { r.Records = l.Records(); res = r }}
	acc.admit(answer{body: answers[1]}, nil)
	acc.deliver(outcome{complete: true, responders: 1})
	if want := append(append(append([]schema.Record{}, second[:80]...), first[5]), second[80:]...); !res.Complete || res.Responders != 1 || !reflect.DeepEqual(res.Records, want) {
		t.Fatalf("decoded delivery: %d records (complete %v, responders %d), want %d", len(res.Records), res.Complete, res.Responders, len(want))
	}
}

// within reports whether sub lies inside buf's memory.
func within(sub, buf []byte) bool {
	for o := range buf {
		if &buf[o] == &sub[0] {
			return o+len(sub) <= len(buf)
		}
	}
	return false
}

// admissions are the two ways a wide query's answers reach the
// accumulator: covering their regions (the path every query takes) and
// claiming no coverage (history delegation, version subsets), which
// dedups by content id.
var admissions = []struct {
	name   string
	header func(int) (answer, *coverSet)
}{{"cover", covering}, {"overlap", nil}}

// BenchmarkRecordAccAdmit times the originator's side of a wide query:
// four answers of 525 records admitted and the spliced list delivered.
func BenchmarkRecordAccAdmit(b *testing.B) {
	var answers []*wire.QueryResp
	for _, f := range wideFrames(4, 2100) {
		m, _ := wire.Decode(f)
		answers = append(answers, m.(*wire.QueryResp))
	}
	for _, adm := range admissions {
		b.Run(adm.name, func(b *testing.B) {
			delivered := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				delivered += admitAll(adm.header, answers...).Len()
			}
			if delivered != 2100*b.N {
				b.Fatalf("%d records delivered over %d queries", delivered, b.N)
			}
		})
	}
}

// BenchmarkAnswerHop times the originator's whole share of a wide query
// on the client-RPC path: four responders' query-resp frames decoded
// (validated in place), admitted, and one client-query-resp encoded from
// the spliced runs.
func BenchmarkAnswerHop(b *testing.B) {
	frames := wideFrames(4, 2100)
	answers := make([]*wire.QueryResp, len(frames))
	for _, adm := range admissions {
		b.Run(adm.name, func(b *testing.B) {
			bytesOut := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, f := range frames {
					m, err := wire.Decode(f)
					if err != nil {
						b.Fatal(err)
					}
					answers[j] = m.(*wire.QueryResp)
				}
				out := wire.Encode(&wire.ClientQueryResp{ReqID: 1, Complete: true, Responders: 4, List: admitAll(adm.header, answers...)})
				bytesOut = len(out)
				wire.RecycleBuf(out)
			}
			b.ReportMetric(float64(bytesOut), "resp-bytes")
		})
	}
}

var hashSink uint64

// BenchmarkRecHash times the content id of a five-attribute record.
func BenchmarkRecHash(b *testing.B) {
	recs := indexTwoRecords(2100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink += recID(recs[i%len(recs)])
	}
}
