package mind_test

import (
	"testing"

	"mind/internal/flowgen"
	"mind/internal/schema"
	"mind/internal/wire"
)

// index2Sample returns the first n flows of flowgen's default workload
// (seed 1) as Index-2 records: destination /24, start second, octets,
// source /24 and the observing monitor.
func index2Sample(n int) []schema.Record {
	var recs []schema.Record
	g := flowgen.New(flowgen.DefaultConfig(1))
	for t := uint64(0); len(recs) < n; t += 30 {
		g.Generate(t, t+30, func(f flowgen.Flow) {
			recs = append(recs, schema.Record{f.DstIP &^ 0xff, f.Start, f.Octets, f.SrcIP &^ 0xff, uint64(f.Node)})
		})
	}
	return recs[:n]
}

// TestWriteRunBytes is the write path's wire-size gate: 4 096 flowgen
// Index-2 records inserted from node 0 of an 8-node cluster in batches
// of 256, and every insert, replicate and ack run any node sends —
// bare or inside an envelope — counted at its own encoding's length per
// record it carries. Measured with every run a frame-of-reference group
// list: 12.5 B per insert record, 8.8 per replicated record and 1.6 per
// ack (the nibble-tagged record list and a column per field before
// them: 34.2, 14.8 and 10.1).
func TestWriteRunBytes(t *testing.T) {
	c := mkCluster(t, 8, 1, nil)
	sch := schema.Index2(86400)
	if err := c.CreateIndex(sch); err != nil {
		t.Fatal(err)
	}
	var bytes, recs [3]int // insert, replicate, ack
	count := func(sub []byte) {
		m, err := wire.Decode(sub)
		if err != nil {
			t.Fatal(err)
		}
		var i, n int
		switch m := m.(type) {
		case *wire.InsertRun:
			i, n = 0, m.Rows.Len()
		case *wire.ReplicateRun:
			i, n = 1, m.Recs.Len()
		case *wire.InsertAcks:
			i, n = 2, m.Rows.Len()
		default:
			return
		}
		bytes[i] += len(sub)
		recs[i] += n
	}
	for _, n := range c.Nodes {
		n.TapSends(func(_ string, frame []byte) {
			if len(frame) > 0 && wire.Kind(frame[0]) == wire.KindBatch {
				m, err := wire.Decode(frame)
				if err != nil {
					t.Fatal(err)
				}
				for _, sub := range m.(*wire.Batch).Msgs {
					count(sub)
				}
				return
			}
			count(frame)
		})
	}
	sample := index2Sample(4096)
	for lo := 0; lo < len(sample); lo += 256 {
		res, _, err := c.InsertBatchWait(0, sch.Tag, sample[lo:lo+256])
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if !r.OK {
				t.Fatalf("record %d: %+v", lo+i, r)
			}
		}
	}
	per := func(i int) float64 { return float64(bytes[i]) / float64(recs[i]) }
	t.Logf("insert %.1f B per record (%d records), replicate %.1f (%d), ack %.1f (%d)",
		per(0), recs[0], per(1), recs[1], per(2), recs[2])
	for i, c := range []struct {
		run   string
		bound float64
	}{{"insert", 15}, {"replicate", 10}, {"ack", 2.5}} {
		if recs[i] == 0 {
			t.Fatalf("no %s run sent", c.run)
		}
		if per(i) > c.bound {
			t.Errorf("%s runs take %.1f B per record, the bound is %.1f", c.run, per(i), c.bound)
		}
	}
}
