package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"mind/internal/schema"
)

// rawGroup is one group's bytes: its row count, arity, each column's
// reference and width | shift<<7, then the offsets' bytes as given.
func rawGroup(rows byte, cols [][2]uint64, body ...byte) []byte {
	g := binary.AppendUvarint([]byte{rows}, uint64(len(cols)))
	for _, col := range cols {
		g = binary.AppendUvarint(binary.AppendUvarint(g, col[0]), col[1])
	}
	return append(g, body...)
}

// rawList is a group list of n records made of groups.
func rawList(n uint64, groups ...[]byte) []byte {
	l := binary.AppendUvarint(nil, n)
	for _, g := range groups {
		l = append(l, g...)
	}
	return l
}

// hostileGroups are group lists, one per rule of the group form, that
// break that rule alone, each beside the list that keeps it — the
// smallest change that makes the decoder accept.
func hostileGroups() []struct {
	rule      string
	bad, good []byte
} {
	zeros := func(n int) []byte { return make([]byte, n) }
	return []struct {
		rule      string
		bad, good []byte
	}{
		{"width over 64",
			rawList(1, rawGroup(1, [][2]uint64{{0, 65}}, zeros(9)...)),
			rawList(1, rawGroup(1, [][2]uint64{{0, 64}}, zeros(8)...))},
		{"shift + width over 64",
			rawList(1, rawGroup(1, [][2]uint64{{0, 60 | 5<<7}}, zeros(8)...)),
			rawList(1, rawGroup(1, [][2]uint64{{0, 60 | 4<<7}}, zeros(8)...))},
		{"a count of 0",
			rawList(1, rawGroup(0, [][2]uint64{{0, 8}}, zeros(1)...)),
			rawList(1, rawGroup(1, [][2]uint64{{0, 8}}, zeros(1)...))},
		{"a count over 32",
			rawList(33, rawGroup(33, [][2]uint64{{0, 8}}, zeros(33)...)),
			rawList(32, rawGroup(32, [][2]uint64{{0, 8}}, zeros(32)...))},
		{"reference + largest offset past 2^64",
			rawList(1, rawGroup(1, [][2]uint64{{math.MaxUint64 - 2, 2}}, 0)),
			rawList(1, rawGroup(1, [][2]uint64{{math.MaxUint64 - 3, 2}}, 0))},
		{"shifted reference + largest offset past 2^64",
			rawList(1, rawGroup(1, [][2]uint64{{1 << 62, 2 | 62<<7}}, 0)),
			rawList(1, rawGroup(1, [][2]uint64{{0, 2 | 62<<7}}, 0))},
		{"bits past the input",
			rawList(1, rawGroup(1, [][2]uint64{{0, 16}}, 0)),
			rawList(1, rawGroup(1, [][2]uint64{{0, 8}}, 0))},
		{"over 4 words a byte", // 5 rows of one value and a 3-word header, in 4 bytes
			rawList(5, rawGroup(5, [][2]uint64{{5, 0}})),
			rawList(4, rawGroup(4, [][2]uint64{{5, 0}}))},
		{"more rows than the count leaves",
			rawList(1, rawGroup(2, [][2]uint64{{0, 8}}, 1, 2)),
			rawList(2, rawGroup(2, [][2]uint64{{0, 8}}, 1, 2))},
		{"arity past the input",
			rawList(1, append([]byte{1}, binary.AppendUvarint(nil, MaxSliceLen)...)),
			rawList(1, rawGroup(1, [][2]uint64{{0, 0}}))},
		{"a record count past the input",
			rawList(5, rawGroup(1, [][2]uint64{{7, 0}})),
			rawList(1, rawGroup(1, [][2]uint64{{7, 0}}))},
	}
}

// TestGroupsRejectHostile: every rule of the group form, one input each,
// refused by the in-place decode (query-resp) and the decoding one
// (client-query-resp) alike, which leave their targets alone — while the
// input one step inside the rule is accepted by both, so each is refused
// for its rule; and every proper prefix of a valid list is refused.
func TestGroupsRejectHostile(t *testing.T) {
	accepts := func(body []byte) (bool, bool) {
		var l Groups
		c := decoder(body)
		c.Groups(&l)
		inPlace := c.err == nil && c.remaining() == 0
		if !inPlace && l.Len() != 0 {
			t.Errorf("%x: a refused decode wrote its list", body)
		}
		var recs []schema.Record
		c = decoder(body)
		c.GroupRecs(&recs)
		decoded := c.err == nil && c.remaining() == 0
		if !decoded && recs != nil {
			t.Errorf("%x: a refused decode wrote its records", body)
		}
		if inPlace && decoded && !reflect.DeepEqual(l.Records(), recs) {
			t.Errorf("%x: the two decodes disagree", body)
		}
		return inPlace, decoded
	}
	for _, h := range hostileGroups() {
		if inPlace, decoded := accepts(h.bad); inPlace || decoded {
			t.Errorf("%s: %x accepted (in place %v, decoded %v)", h.rule, h.bad, inPlace, decoded)
		}
		if inPlace, decoded := accepts(h.good); !inPlace || !decoded {
			t.Errorf("%s: the valid neighbour %x refused (in place %v, decoded %v)", h.rule, h.good, inPlace, decoded)
		}
	}
	enc := &codec{}
	enc.GroupRecs(&[]schema.Record{{1, 0, 1 << 40}, {}, {^uint64(0), 5}, {^uint64(0), 6}})
	valid := enc.buf[:enc.off]
	if inPlace, decoded := accepts(valid); !inPlace || !decoded {
		t.Fatalf("valid list %x refused", valid)
	}
	for cut := 0; cut < len(valid); cut++ {
		if inPlace, decoded := accepts(valid[:cut]); inPlace || decoded {
			t.Errorf("prefix %d of %x accepted", cut, valid)
		}
	}
}

// TestGroupsRoundTrip: records of every shape — values at both ends of
// the range, references near 2⁶⁴ that fit must lower, shared low zero
// bits, equal records the density rule splits, zero-arity records —
// encode to groups every one of which the header check accepts and that
// decode, each group once, to exactly the records.
func TestGroupsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	shapes := map[string]func(i int) schema.Record{
		"random widths": func(int) schema.Record {
			return schema.Record{r.Uint64() >> uint(r.Intn(65)), r.Uint64() >> uint(r.Intn(65)), r.Uint64() >> uint(r.Intn(65))}
		},
		"near 2^64": func(int) schema.Record {
			return schema.Record{math.MaxUint64 - uint64(r.Intn(5)), math.MaxUint64 - uint64(r.Intn(1<<20))<<8, 1 << 63}
		},
		"shared low zeros": func(int) schema.Record {
			return schema.Record{uint64(r.Uint32()) &^ 0xff, uint64(r.Intn(1<<10)) << 40}
		},
		"equal":      func(int) schema.Record { return schema.Record{7, 1 << 40, 0, 5, 9} },
		"zero arity": func(int) schema.Record { return schema.Record{} },
		"one bit":    func(i int) schema.Record { return schema.Record{uint64(i & 1), 42} },
		"full width": func(i int) schema.Record { return schema.Record{uint64(i) * 0x9e3779b97f4a7c15, 0} },
	}
	for name, shape := range shapes {
		for _, n := range []int{1, 2, 31, 32, 33, 100} {
			recs := make([]schema.Record, n)
			for i := range recs {
				recs[i] = shape(i)
			}
			var l Groups
			l.Append(recs...)
			for _, run := range l.Runs() {
				for off := 0; off < len(run); {
					h, _, why := readGroup(run[off:], nil)
					if why != "" {
						t.Fatalf("%s, %d records: the encoder wrote a group its decoder refuses: %s", name, n, why)
					}
					off += h.size
				}
			}
			frame := Encode(&ClientQueryResp{ReqID: 1, List: l})
			got, err := Decode(frame)
			if err != nil {
				t.Fatalf("%s, %d records: %v", name, n, err)
			}
			if dec := got.(*ClientQueryResp).Recs; !reflect.DeepEqual(dec, recs) {
				t.Fatalf("%s, %d records decode to %v, want %v", name, n, dec, recs)
			}
			if again := Encode(&ClientQueryResp{ReqID: 1, Recs: recs}); !bytes.Equal(again, frame) {
				t.Fatalf("%s, %d records: records and the list built from them encode differently", name, n)
			}
		}
	}
}

// refGroups decodes a group list by the letter of DESIGN.md §6, one bit
// at a time: a record count (at most MaxSliceLen and the bytes after
// it), then groups whose rows sum to it, each a row count of 1–32, an
// arity, per column a reference and a width | shift<<7 with width ≤ 64,
// shift + width ≤ 64 and reference + (2^width-1)<<shift below 2⁶⁴, the
// offsets' ⌈rows·Σwidth/8⌉ bytes, and rows·(arity+3) ≤ 4 × the group's
// bytes. FuzzGroups holds the codec to it.
func refGroups(b []byte) ([]schema.Record, bool) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > MaxSliceLen || n > uint64(len(b)-w) {
		return nil, false
	}
	b = b[w:]
	var recs []schema.Record
	for uint64(len(recs)) < n {
		if len(b) == 0 {
			return nil, false
		}
		rows := int(b[0])
		if rows < 1 || rows > 32 || uint64(len(recs)+rows) > n {
			return nil, false
		}
		k, w := binary.Uvarint(b[1:])
		if w <= 0 {
			return nil, false
		}
		p := 1 + w
		type column struct {
			ref          uint64
			shift, width uint
		}
		var cols []column
		nbits := 0
		for c := uint64(0); c < k; c++ {
			ref, w := binary.Uvarint(b[p:])
			if w <= 0 {
				return nil, false
			}
			p += w
			sw, w := binary.Uvarint(b[p:])
			if w <= 0 {
				return nil, false
			}
			p += w
			width, shift := sw&127, sw>>7
			if width > 64 || shift+width > 64 {
				return nil, false
			}
			// (2^width - 1) << shift < 2^(width+shift) ≤ 2^64: no wrap.
			if _, carry := bits.Add64(ref, (1<<width-1)<<shift, 0); carry != 0 {
				return nil, false
			}
			cols = append(cols, column{ref, uint(shift), uint(width)})
			nbits += rows * int(width)
		}
		size := p + (nbits+7)/8
		if size > len(b) || rows*(len(cols)+3) > 4*size {
			return nil, false
		}
		vals := make([]uint64, rows*len(cols))
		pos := 8 * p
		for c, col := range cols {
			for r := 0; r < rows; r++ {
				var off uint64
				for j := uint(0); j < col.width; j++ {
					off |= uint64(b[pos/8]>>(pos%8)&1) << j
					pos++
				}
				vals[r*len(cols)+c] = col.ref + off<<col.shift
			}
		}
		for r := 0; r < rows; r++ {
			recs = append(recs, append(make(schema.Record, 0, len(cols)), vals[r*len(cols):(r+1)*len(cols)]...))
		}
		b = b[size:]
	}
	return recs, len(b) == 0
}

// FuzzGroups: bytes decode as a group list, in place and decoded,
// exactly when the bit-at-a-time reference decodes them (refGroups);
// then both decodes are its records, re-encoding the list reproduces the
// input, and the records encode to groups that decode to them again.
func FuzzGroups(f *testing.F) {
	for _, recs := range [][]schema.Record{
		nil, {{}}, {{0}}, {{1, 2}, {3, 4}}, alternatingRecords(5), wideRecords(40),
		{{0, ^uint64(0), 1 << 56, 0xff, 0x100}, make(schema.Record, 9)},
		{{^uint64(0) - 1}, {^uint64(0)}}, // a reference fit had to lower
	} {
		enc := &codec{}
		enc.GroupRecs(&recs)
		n, w := binary.Uvarint(enc.buf)
		f.Add(uint16(n), enc.buf[w:enc.off])
	}
	for _, h := range hostileGroups() {
		for _, l := range [][]byte{h.bad, h.good} {
			n, w := binary.Uvarint(l)
			f.Add(uint16(n), l[w:])
		}
	}
	f.Fuzz(func(t *testing.T, count uint16, body []byte) {
		data := append(binary.AppendUvarint(nil, uint64(count)), body...)
		want, ok := refGroups(data)
		var l Groups
		c := decoder(data)
		c.Groups(&l)
		if got := c.err == nil && c.remaining() == 0; got != ok {
			t.Fatalf("%x: in-place decode ok %v (%v), reference ok %v", data, got, c.err, ok)
		}
		var recs []schema.Record
		c = decoder(data)
		c.GroupRecs(&recs)
		if got := c.err == nil && c.remaining() == 0; got != ok {
			t.Fatalf("%x: decode ok %v (%v), reference ok %v", data, got, c.err, ok)
		}
		if !ok {
			return
		}
		if got := l.Records(); l.Len() != len(want) || !reflect.DeepEqual(got, recs) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%x: Records() = %v, reference %v", data, got, want)
		}
		enc := &codec{}
		enc.Groups(&l)
		if !bytes.Equal(enc.buf[:enc.off], data) {
			t.Fatalf("re-encoding %x gives %x", data, enc.buf[:enc.off])
		}
		enc = &codec{}
		enc.GroupRecs(&want)
		var again []schema.Record
		c = decoder(enc.buf[:enc.off])
		if c.GroupRecs(&again); c.err != nil || c.remaining() != 0 || !reflect.DeepEqual(again, recs) {
			t.Fatalf("%x: the records re-encode to %x, which decodes to %v (%v)", data, enc.buf[:enc.off], again, c.err)
		}
	})
}
