package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"mind/internal/bitstr"
	"mind/internal/schema"
)

// insertRun is an n-record run as an ingest backfill's originator sends
// it: wide Index-2-shaped records, 64-bit request ids, distinct targets.
func insertRun(n int) *InsertRun {
	m := &InsertRun{OriginAddr: "127.0.0.1:40123", Index: "index2-octets", Version: 3, TreeEpoch: 1<<16 | 7, Attempt: 1}
	for i, rec := range wideRecords(n) {
		m.Append(0x9e3779b97f4a0000|uint64(i+1), bitstr.New(uint64(i)&0xfff, 12), uint8(1+i%3), rec)
	}
	return m
}

// replicateRun is an n-record replicate run.
func replicateRun(n int) *ReplicateRun {
	m := &ReplicateRun{Index: "index2-octets", Version: 3, OwnerCode: bitstr.New(0b101, 3)}
	for _, rec := range wideRecords(n) {
		m.Recs.Append(rec)
	}
	return m
}

// insertAcks is an n-record ack run.
func insertAcks(n int) *InsertAcks {
	m := &InsertAcks{StoredAt: NodeInfo{Addr: "127.0.0.1:40124", Code: bitstr.New(0b1011, 4)}}
	for i := 0; i < n; i++ {
		m.ReqIDs = append(m.ReqIDs, 0x9e3779b97f4a0000|uint64(i+1))
		m.Hops = append(m.Hops, uint8(i%4))
	}
	return m
}

// repeatRun is an n-record insert run of repeats: a retransmission's or
// a repair's.
func repeatRun(n int) *InsertRun {
	m := insertRun(n)
	m.Attempt, m.Repeat = 3, true
	return m
}

// TestRunsRoundTrip: each run kind survives encode→decode for 1, 2 and
// 65 records, and a decoded run's records are the ones appended.
func TestRunsRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 65} {
		for _, m := range []Message{insertRun(n), repeatRun(n), replicateRun(n), insertAcks(n)} {
			enc := Encode(m)
			dec, err := Decode(enc)
			if err != nil {
				t.Fatalf("%s of %d: %v", m.Kind(), n, err)
			}
			if !bytes.Equal(Encode(dec), enc) {
				t.Fatalf("%s of %d: re-encoding differs", m.Kind(), n)
			}
		}
		run, _ := Decode(Encode(insertRun(n)))
		if got := run.(*InsertRun).Recs.Records(); !reflect.DeepEqual(got, wideRecords(n)) {
			t.Fatalf("insert run of %d decoded other records", n)
		}
	}
}

// TestRunRepeatBit: Repeat rides in the high bit of the attempt byte —
// a run without it encodes exactly as before the bit existed, one with
// it differs in that bit alone — and an attempt past MaxAttempt is
// clamped rather than spilling into it.
func TestRunRepeatBit(t *testing.T) {
	plain, repeat := Encode(insertRun(2)), Encode(repeatRun(2))
	if len(plain) != len(repeat) {
		t.Fatalf("a repeat run encodes to %d bytes, a plain one to %d", len(repeat), len(plain))
	}
	diff := 0
	for i := range plain {
		if plain[i] != repeat[i] {
			diff++
			if plain[i] != 1 || repeat[i] != 3|0x80 {
				t.Fatalf("byte %d: %#x → %#x, want the attempt byte 0x01 → 0x83", i, plain[i], repeat[i])
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want the attempt byte alone", diff)
	}
	for _, c := range []struct {
		attempt uint8
		repeat  bool
	}{{0, false}, {0, true}, {MaxAttempt, true}, {MaxAttempt + 1, false}, {255, true}} {
		m := insertRun(1)
		m.Attempt, m.Repeat = c.attempt, c.repeat
		dec, err := Decode(Encode(m))
		if err != nil {
			t.Fatal(err)
		}
		got := dec.(*InsertRun)
		if got.Attempt != min(c.attempt, MaxAttempt) || got.Repeat != c.repeat {
			t.Errorf("attempt %d repeat %v decoded as attempt %d repeat %v", c.attempt, c.repeat, got.Attempt, got.Repeat)
		}
	}
}

// TestRunsRejectHostile: a run's columns must each hold one value per
// record, within the frame, and a run must hold a record.
func TestRunsRejectHostile(t *testing.T) {
	refuses := func(name string, data []byte) {
		t.Helper()
		if m, err := Decode(data); err == nil {
			t.Errorf("%s: decoded to %+v", name, m)
		}
	}
	// Every column one value short, then one value long.
	for _, delta := range []int{-1, 1} {
		resize := func(v []uint64) []uint64 {
			if delta < 0 {
				return v[:len(v)-1]
			}
			return append(v, 7)
		}
		for col := 0; col < 3; col++ {
			m := insertRun(3)
			switch col {
			case 0:
				m.ReqIDs = resize(m.ReqIDs)
			case 1:
				m.Targets = m.Targets[:len(m.Targets)+min(delta, 0)]
				if delta > 0 {
					m.Targets = append(m.Targets, bitstr.Empty)
				}
			case 2:
				m.Hops = m.Hops[:len(m.Hops)+min(delta, 0)]
				if delta > 0 {
					m.Hops = append(m.Hops, 1)
				}
			}
			refuses("insert column length off the record count", Encode(m))
		}
		a := insertAcks(3)
		a.Hops = a.Hops[:len(a.Hops)+min(delta, 0)]
		if delta > 0 {
			a.Hops = append(a.Hops, 1)
		}
		refuses("ack hops off the ReqID count", Encode(a))
	}

	// Every truncation of every layout, inside its columns too.
	for _, m := range []Message{insertRun(3), replicateRun(3), insertAcks(3)} {
		valid := Encode(m)
		for cut := 1; cut < len(valid); cut++ {
			refuses("truncated "+m.Kind().String(), valid[:cut])
		}
	}

	// A ReqID column that runs past the frame: its length claims more
	// values than bytes remain, or its last varint is cut short.
	m := insertRun(2)
	head := len(Encode(&InsertRun{OriginAddr: m.OriginAddr, Index: m.Index, Version: m.Version,
		TreeEpoch: m.TreeEpoch, Attempt: m.Attempt, Recs: m.Recs})) - 3 // three empty columns
	valid := Encode(m)
	long := append(valid[:head:head], binary.AppendUvarint(nil, 1<<20)...)
	refuses("ReqID column longer than the frame", append(long, valid[head+1:]...))
	short := append(valid[:head:head], 2)
	short = binary.AppendUvarint(short, m.ReqIDs[0])
	refuses("ReqID varint cut by the frame's end", append(short, 0x80))

	// A Target longer than bitstr.MaxLen: the first target's length byte
	// sits after the ReqID column and the Targets length.
	one := insertRun(1)
	enc := Encode(one)
	pos := len(enc) - 2 - 9 // Hops column (length, value), then the code's length byte and 8 bits bytes
	if int(enc[pos]) != one.Targets[0].Len() {
		t.Fatalf("target length byte not at %d", pos)
	}
	enc[pos] = bitstr.MaxLen + 1
	refuses("Target longer than bitstr.MaxLen", enc)

	// Empty runs.
	refuses("empty insert run", Encode(&InsertRun{OriginAddr: "o", Index: "idx"}))
	refuses("empty replicate run", Encode(&ReplicateRun{Index: "idx"}))
	refuses("empty ack run", Encode(&InsertAcks{StoredAt: NodeInfo{Addr: "n"}}))
}

// TestSpliceJoinsAdjacentRecords: records of a decoded list spliced one
// at a time, in order, make one run; a gap, another list or an Append in
// between starts a new one, and the list encodes as its records do.
func TestSpliceJoinsAdjacentRecords(t *testing.T) {
	recs := wideRecords(6)
	src := listOf(recs...)
	other := listOf(recs[:1]...)
	var got RecList
	var want []schema.Record
	cur := src.Cursor()
	for i := 0; i < len(recs); i++ {
		rec := cur.Next()
		if i == 3 {
			continue // a gap: record 4 starts a run of its own
		}
		got.Splice(rec, 1)
		want = append(want, recs[i])
	}
	if cur.Next() != nil {
		t.Fatal("cursor ran past the last record")
	}
	if len(got.Runs()) != 2 {
		t.Fatalf("%d runs for two adjacent spans, want 2", len(got.Runs()))
	}
	o := other.Cursor()
	got.Splice(o.Next(), 1)
	got.Append(recs[5])
	c := src.Cursor()
	got.Splice(c.Next(), 1)
	want = append(want, recs[0], recs[5], recs[0])
	if len(got.Runs()) != 5 {
		t.Fatalf("%d runs, want 5: another list, an Append and a splice after it each start one", len(got.Runs()))
	}
	if got.Len() != len(want) || !reflect.DeepEqual(got.Records(), want) {
		t.Fatalf("spliced list holds %v, want %v", got.Records(), want)
	}
	if !bytes.Equal(encodeList(got), encodeList(listOf(want...))) {
		t.Fatal("spliced list encodes differently from its records")
	}
	// RecInto decodes what the cursor steps over.
	c = src.Cursor()
	var buf []uint64
	for i := range recs {
		if buf = RecInto(c.Next(), buf); !reflect.DeepEqual(schema.Record(buf), recs[i]) {
			t.Fatalf("record %d decoded as %v, want %v", i, buf, recs[i])
		}
	}
}
