package wire

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mind/internal/schema"
)

// alternatingAnswer is a QueryResp whose n records alternate between
// arity 1 and arity 300: the arena sized from the first record never
// fits the second, and the one opened for a long record is used up by
// it and the short records between — the decoder's fallback path.
func alternatingAnswer(n int) *QueryResp {
	m := &QueryResp{ReqID: 1, From: NodeInfo{Addr: "n"}, Versions: []uint64{0}, Recs: make([]schema.Record, n)}
	for i := range m.Recs {
		arity := 1 + 299*(i%2)
		m.Recs[i] = make(schema.Record, arity)
		for j := range m.Recs[i] {
			m.Recs[i][j] = uint64(i + j)
		}
	}
	return m
}

// decodeAllocating decodes input and returns what Decode made of it
// with the bytes it allocated on the way: the least of three tries,
// because what the runtime itself allocates while a collection is in
// flight (earlier tests leave garbage) lands in the same counter.
func decodeAllocating(input []byte) (m Message, err error, allocated uint64) {
	allocated = ^uint64(0)
	var before, after runtime.MemStats
	for try := 0; try < 3; try++ {
		runtime.ReadMemStats(&before)
		m, err = Decode(input)
		runtime.ReadMemStats(&after)
		allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
	}
	return m, err, allocated
}

// TestDecodeRecsArena: record lists the shared arena was not sized for
// decode to exactly what was encoded, and hostile ones stay inside
// TestDecodeAllocationBounded's bound of 64 bytes per input byte + 4 KiB.
func TestDecodeRecsArena(t *testing.T) {
	for name, m := range map[string]Message{
		"alternating arities": alternatingAnswer(40),
		"zero-arity records": &ClientQueryResp{ReqID: 2, Complete: true,
			Recs: []schema.Record{{}, {7, 8}, {}, {}, {9}, {}}},
		"only zero-arity records": &ClientQueryResp{ReqID: 3, Recs: []schema.Record{{}, {}, {}}},
	} {
		got, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s round trip:\n got %#v\nwant %#v", name, got, m)
		}
	}

	bound := func(input []byte) uint64 { return uint64(64*len(input) + 4<<10) }
	// A valid answer cut short inside its record list, followed by a
	// record count or an arity of MaxSliceLen, wherever the cut falls.
	hostile := binary.AppendUvarint(nil, MaxSliceLen)
	valid := Encode(alternatingAnswer(4))
	for cut := 1; cut <= len(valid); cut++ {
		input := append(valid[:cut:cut], hostile...)
		m, err, got := decodeAllocating(input)
		if got > bound(input) {
			t.Errorf("prefix %d + hostile length: Decode allocated %d bytes for %d, bound %d", cut, got, len(input), bound(input))
		}
		if err == nil && len(Encode(m)) != len(input) {
			t.Errorf("prefix %d + hostile length decoded without error", cut)
		}
	}
	// One arena per record: an arena is opened for its record's arity
	// times the records still to come, so a record one longer than what
	// its predecessor's arena has left never fits, and every arena but
	// the last is abandoned with most of its room unused. Whole, and cut
	// short inside the last record.
	const n = 8
	greedy := &ClientQueryResp{ReqID: 4, Recs: make([]schema.Record, n)}
	for i, arity := 0, 1; i < n; i, arity = i+1, arity*(n-i-1)+1 {
		greedy.Recs[i] = make(schema.Record, arity)
	}
	whole := Encode(greedy)
	for _, input := range [][]byte{whole, whole[:len(whole)-1]} {
		if _, _, got := decodeAllocating(input); got > bound(input) {
			t.Errorf("one arena per record: Decode allocated %d bytes for %d, bound %d", got, len(input), bound(input))
		}
	}
}

// TestDecodedRecsViewContract: a decoded record is a capped view of its
// answer's arena (the store's contract, store.TestViewContract) — its
// capacity ends where it does, so appending to one reallocates instead
// of writing into its neighbour.
func TestDecodedRecsViewContract(t *testing.T) {
	recs := wideAnswer(64).Recs
	recs = append(recs, schema.Record{}, schema.Record{1}, make(schema.Record, 300), schema.Record{2})
	for _, m := range []Message{
		&QueryResp{ReqID: 1, From: NodeInfo{Addr: "n"}, Recs: recs},
		&ClientQueryResp{ReqID: 1, Complete: true, Recs: recs},
	} {
		dec, err := Decode(Encode(m))
		if err != nil {
			t.Fatal(err)
		}
		var got []schema.Record
		switch d := dec.(type) {
		case *QueryResp:
			got = d.Recs
		case *ClientQueryResp:
			got = d.Recs
		}
		for i, rec := range got {
			if cap(rec) != len(rec) {
				t.Fatalf("%s record %d: len %d, cap %d", m.Kind(), i, len(rec), cap(rec))
			}
			_ = append(rec, ^uint64(0))
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("%s: appending to decoded records changed their neighbours", m.Kind())
		}
	}
}

// TestUvarintsMatchUvarint: the word-at-a-time varint loop accepts,
// refuses and values every input exactly as binary.Uvarint does — valid
// varints of every length at every distance from the end of the input,
// overlong and overflowing ones, and noise.
func TestUvarintsMatchUvarint(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 300000; i++ {
		var buf []byte
		switch r.Intn(3) {
		case 0:
			buf = binary.AppendUvarint(nil, r.Uint64()>>uint(r.Intn(64)))
			buf = append(buf, make([]byte, r.Intn(12))...)
		case 1:
			buf = make([]byte, r.Intn(14))
			r.Read(buf)
		case 2: // a run of continuation bytes, sometimes ended
			buf = make([]byte, r.Intn(14))
			for j := range buf {
				buf[j] = 0x80 | byte(r.Intn(128))
			}
			if len(buf) > 0 && r.Intn(2) == 0 {
				buf[r.Intn(len(buf))] &= 0x7f
			}
		}
		want, n := binary.Uvarint(buf)
		got := []uint64{0}
		c := decoder(buf)
		c.uvarints(got)
		if (c.err == nil) != (n > 0) || (n > 0 && (got[0] != want || c.off != n)) {
			t.Fatalf("%x: decoded %d over %d bytes (err %v), binary.Uvarint says %d over %d", buf, got[0], c.off, c.err, want, n)
		}
	}
}
