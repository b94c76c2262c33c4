package wire

import (
	"bytes"
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
		m.Recs.AppendRow(rec)
	}
	return m
}

// insertAcks is an n-record ack run.
func insertAcks(n int) *InsertAcks {
	m := &InsertAcks{StoredAt: NodeInfo{Addr: "127.0.0.1:40124", Code: bitstr.New(0b1011, 4)}}
	for i := 0; i < n; i++ {
		m.Append(0x9e3779b97f4a0000|uint64(i+1), uint8(i%4))
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
		i := 0
		run.(*InsertRun).Rows.EachRow(func(row []uint64) {
			reqID, target, hops, rec := InsertRow(row)
			if reqID != 0x9e3779b97f4a0000|uint64(i+1) || target != bitstr.New(uint64(i)&0xfff, 12) || hops != uint8(1+i%3) ||
				!reflect.DeepEqual(rec, wideRecords(n)[i]) {
				t.Fatalf("insert run of %d: row %d decoded as %d %s %d %v", n, i, reqID, target, hops, rec)
			}
			i++
		})
		if i != n {
			t.Fatalf("insert run of %d decoded %d rows", n, i)
		}
		acks, _ := Decode(Encode(insertAcks(n)))
		i = 0
		acks.(*InsertAcks).Rows.EachRow(func(row []uint64) {
			if reqID, hops := AckRow(row); reqID != 0x9e3779b97f4a0000|uint64(i+1) || hops != uint8(i%4) {
				t.Fatalf("ack run of %d: row %d decoded as %d %d", n, i, reqID, hops)
			}
			i++
		})
		if i != n {
			t.Fatalf("ack run of %d decoded %d rows", n, i)
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

// hostileRun is a write-path run that breaks one decode rule.
type hostileRun struct {
	name string
	enc  []byte
}

// hostileRuns breaks each rule a decoded run keeps, one input each: a
// run holds a record, an insert row has its four columns, a target
// length at most bitstr.MaxLen and a hop count at most 255, and an ack
// row is a ReqID and a hop count of at most 255. A bound is broken both
// where the group's header shows it (one row) and where only a value
// does (a second row widens the frame past the bound).
func hostileRuns() []hostileRun {
	ins := func(rows ...schema.Record) []byte {
		return Encode(&InsertRun{OriginAddr: "o", Index: "idx", Rows: groupsOf(rows...)})
	}
	ack := func(rows ...schema.Record) []byte {
		return Encode(&InsertAcks{StoredAt: NodeInfo{Addr: "n"}, Rows: groupsOf(rows...)})
	}
	const over = bitstr.MaxLen + 1
	return []hostileRun{
		{"empty insert run", ins()},
		{"empty replicate run", Encode(&ReplicateRun{Index: "idx"})},
		{"empty ack run", ack()},
		{"insert row of arity 3", ins(schema.Record{8, 0, 4})},
		{"insert rows of arity 4, then 3", ins(schema.Record{8, 0, 0, 1}, schema.Record{8, 0, 4})},
		{"target length over bitstr.MaxLen", ins(schema.Record{8, 0, over, 1, 5})},
		{"target length over bitstr.MaxLen in a wide frame", ins(schema.Record{8, 0, 0, 1, 5}, schema.Record{9, 0, over, 1, 5})},
		{"hop count over 255", ins(schema.Record{8, 0, 4, 256, 5})},
		{"hop count over 255 in a wide frame", ins(schema.Record{8, 0, 4, 0, 5}, schema.Record{9, 0, 4, 256, 5})},
		{"ack row of arity 1", ack(schema.Record{8})},
		{"ack row of arity 3", ack(schema.Record{8, 1, 0})},
		{"ack hop count over 255", ack(schema.Record{8, 256})},
		{"ack hop count over 255 in a wide frame", ack(schema.Record{8, 0}, schema.Record{9, 256})},
	}
}

// TestRunsRejectHostile: every rule a decoded run keeps refuses its
// hostile input (hostileRuns), rows whose frames could spell a value
// past a bound but hold none are accepted, and every truncation of every
// layout is refused.
func TestRunsRejectHostile(t *testing.T) {
	refuses := func(name string, data []byte) {
		t.Helper()
		if m, err := Decode(data); err == nil {
			t.Errorf("%s: decoded to %+v", name, m)
		}
	}
	for _, h := range hostileRuns() {
		refuses(h.name, h.enc)
	}
	for name, m := range map[string]Message{
		"target lengths 0 and bitstr.MaxLen": &InsertRun{OriginAddr: "o", Index: "idx",
			Rows: groupsOf(schema.Record{8, 0, 0, 1, 5}, schema.Record{9, 0, bitstr.MaxLen, 1, 5})},
		"hop counts 0 and 255": &InsertRun{OriginAddr: "o", Index: "idx",
			Rows: groupsOf(schema.Record{8, 0, 4, 0, 5}, schema.Record{9, 0, 4, 255, 5})},
		"ack hop counts 0 and 255": &InsertAcks{StoredAt: NodeInfo{Addr: "n"},
			Rows: groupsOf(schema.Record{8, 0}, schema.Record{9, 255})},
		"insert row of no values": &InsertRun{OriginAddr: "o", Index: "idx", Rows: groupsOf(schema.Record{8, 0, 0, 0})},
	} {
		if _, err := Decode(Encode(m)); err != nil {
			t.Errorf("%s: refused: %v", name, err)
		}
	}

	// Every truncation of every layout.
	for _, m := range []Message{insertRun(3), replicateRun(3), insertAcks(3), insertRun(65)} {
		valid := Encode(m)
		for cut := 1; cut < len(valid); cut++ {
			refuses("truncated "+m.Kind().String(), valid[:cut])
		}
	}
}
