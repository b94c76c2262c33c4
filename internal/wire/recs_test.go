package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mind/internal/schema"
)

// groupsOf is recs as Decode hands a group list over: one run holding
// their groups, each stretch of one arity 32 records at a time.
func groupsOf(recs ...schema.Record) Groups {
	enc := &codec{}
	enc.GroupRecs(&recs)
	var l Groups
	decoder(enc.buf[:enc.off]).Groups(&l)
	return l
}

// alternatingRecords returns n records that alternate between arity 1
// and arity 300.
func alternatingRecords(n int) []schema.Record {
	recs := make([]schema.Record, n)
	for i := range recs {
		arity := 1 + 299*(i%2)
		recs[i] = make(schema.Record, arity)
		for j := range recs[i] {
			recs[i][j] = uint64(i + j)
		}
	}
	return recs
}

// alternatingAnswer is a QueryResp of n alternatingRecords.
func alternatingAnswer(n int) *QueryResp {
	return &QueryResp{ReqID: 1, From: NodeInfo{Addr: "n"}, Versions: []uint64{0}, Recs: groupsOf(alternatingRecords(n)...)}
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

// TestDecodeRecsArena: answers of mixed arities decode, a group at a
// time, to exactly what was encoded, into one arena, and hostile ones
// stay inside TestDecodeAllocationBounded's bound of 64 bytes per input
// byte + 4 KiB.
func TestDecodeRecsArena(t *testing.T) {
	for name, m := range map[string]Message{
		"alternating arities":         alternatingAnswer(40),
		"alternating arities, client": &ClientQueryResp{ReqID: 1, Recs: alternatingRecords(40)},
		"zero-arity records": &ClientQueryResp{ReqID: 2, Complete: true,
			Recs: []schema.Record{{}, {7, 8}, {}, {}, {9}, {}}},
		"only zero-arity records": &ClientQueryResp{ReqID: 3, Recs: []schema.Record{{}, {}, {}}},
		"zero and full-width values": &ClientQueryResp{ReqID: 4,
			Recs: []schema.Record{{0, ^uint64(0), 0}, {1 << 56, 0, 1<<56 - 1, 0xff, 0x100}}},
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
	// A valid answer cut short inside its group list, followed by a
	// record count or an arity of MaxSliceLen, wherever the cut falls.
	hostile := binary.AppendUvarint(nil, MaxSliceLen)
	for _, valid := range [][]byte{Encode(alternatingAnswer(4)), Encode(&ClientQueryResp{Recs: alternatingRecords(4)})} {
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
	}
	// Arities 1, 8, 49, … one record each: a group per record.
	const n = 8
	greedy := &ClientQueryResp{ReqID: 4, Recs: make([]schema.Record, n)}
	for i, arity := 0, 1; i < n; i, arity = i+1, arity*(n-i-1)+1 {
		greedy.Recs[i] = make(schema.Record, arity)
	}
	// The most values per input byte a group can hold: zero values, each
	// column's header two bytes and no offset.
	dense := &ClientQueryResp{ReqID: 5, Recs: []schema.Record{make(schema.Record, 4000), {}, make(schema.Record, 3)}}
	// A long first record and 2 000 empty ones.
	long := &ClientQueryResp{ReqID: 6, Recs: append([]schema.Record{make(schema.Record, 2000)}, make([]schema.Record, 2000)...)}
	// 2 000 equal records: every column width 0, so the density rule
	// splits each 32-row stretch down to groups the bytes pay for.
	same := &ClientQueryResp{ReqID: 7, Recs: make([]schema.Record, 2000)}
	for i := range same.Recs {
		same.Recs[i] = schema.Record{7, 1 << 40, 0, 5, 9}
	}
	for name, m := range map[string]Message{"one arity per record": greedy, "zero values": dense, "long record first": long, "equal records": same} {
		// Whole, and cut short inside the last group.
		whole := Encode(m)
		for _, input := range [][]byte{whole, whole[:len(whole)-1]} {
			if _, _, got := decodeAllocating(input); got > bound(input) {
				t.Errorf("%s: Decode allocated %d bytes for %d, bound %d", name, got, len(input), bound(input))
			}
		}
	}
	if got, err := Decode(Encode(same)); err != nil || !reflect.DeepEqual(got, same) {
		t.Errorf("equal records: round trip failed (%v)", err)
	}
}

// TestSplicedEqualsEncoded: a group list spliced from a decoded list's
// runs, cut at group boundaries into any number of runs, encodes byte
// for byte as the records it holds do, and decodes to them; and a list
// packed from store-shaped batches encodes as its records do.
func TestSplicedEqualsEncoded(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 300} {
		// Records in stretches of one arity (0–6), values of every width.
		var recs []schema.Record
		for len(recs) < n {
			arity := r.Intn(7)
			for j := min(1+r.Intn(70), n-len(recs)); j > 0; j-- {
				rec := make(schema.Record, arity)
				for v := range rec {
					rec[v] = r.Uint64() >> uint(r.Intn(65))
				}
				recs = append(recs, rec)
			}
		}
		frame := Encode(&QueryResp{ReqID: 7, Recs: groupsOf(recs...)})
		m, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		// Packed as a store's batches of up to 32 rows of one arity, with
		// rows between the selected ones, the list encodes the same bytes.
		var batched Groups
		for lo := 0; lo < n; {
			hi := lo + 1
			for hi < n && hi-lo < 32 && len(recs[hi]) == len(recs[lo]) {
				hi++
			}
			arity := len(recs[lo])
			var rows []uint64
			var sel []int32
			for _, rec := range recs[lo:hi] {
				rows = append(rows, make([]uint64, arity)...) // an unselected row
				sel = append(sel, int32(len(rows)))
				rows = append(rows, rec...)
			}
			batched.AppendRows(rows, sel, arity)
			lo = hi
		}
		if got := Encode(&QueryResp{ReqID: 7, Recs: batched}); !bytes.Equal(got, frame) {
			t.Fatalf("%d records packed as batches encode differently", n)
		}
		var bounds []int // group boundaries of the decoded run
		var run []byte
		if n > 0 {
			run = m.(*QueryResp).Recs.Runs()[0]
		}
		rowsBefore := []int{}
		for off, rows := 0, 0; off < len(run); off += groupLen(run[off:]) {
			bounds, rowsBefore = append(bounds, off), append(rowsBefore, rows)
			rows += int(run[off])
		}
		bounds, rowsBefore = append(bounds, len(run)), append(rowsBefore, n)
		groups := len(bounds) - 1
		for _, pieces := range []int{1, 2, 5, groups} {
			var spliced Groups
			for p := 0; p < pieces && groups > 0; p++ {
				lo, hi := p*groups/pieces, (p+1)*groups/pieces
				spliced.Splice(run[bounds[lo]:bounds[hi]], rowsBefore[hi]-rowsBefore[lo])
			}
			if got, want := Encode(&ClientQueryResp{ReqID: 1, List: spliced}), Encode(&ClientQueryResp{ReqID: 1, Recs: recs}); !bytes.Equal(got, want) {
				t.Fatalf("%d records in %d runs: client-query-resp from runs\n%x\nfrom records\n%x", n, pieces, got, want)
			}
			if got := Encode(&QueryResp{ReqID: 7, Recs: spliced}); !bytes.Equal(got, frame) {
				t.Fatalf("%d records in %d runs: query-resp from runs differs from the frame they were cut from", n, pieces)
			}
			if got := spliced.Records(); len(got) != n || (n > 0 && !reflect.DeepEqual(got, recs)) {
				t.Fatalf("%d records in %d runs decode to %d records", n, pieces, len(got))
			}
		}
	}
}

// groupLen is the byte length of the group at the front of b.
func groupLen(b []byte) int {
	_, _, size := DecodeGroup(b, nil)
	return size
}

// TestDecodedRecsViewContract: a decoded record is a capped view of its
// list's arena (the store's contract, store.TestViewContract) — its
// capacity ends where it does, so appending to one reallocates instead
// of writing into its neighbour.
func TestDecodedRecsViewContract(t *testing.T) {
	recs := append(wideRecords(64), schema.Record{}, schema.Record{1}, make(schema.Record, 300), schema.Record{2})
	for _, m := range []Message{
		&QueryResp{ReqID: 1, From: NodeInfo{Addr: "n"}, Recs: groupsOf(recs...)},
		&ClientQueryResp{ReqID: 1, Complete: true, Recs: recs},
	} {
		dec, err := Decode(Encode(m))
		if err != nil {
			t.Fatal(err)
		}
		var got []schema.Record
		switch d := dec.(type) {
		case *QueryResp:
			got = d.Recs.Records()
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
