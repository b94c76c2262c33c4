package main

import (
	"math"
	"math/rand"
	"testing"

	"mind/internal/schema"
	"mind/internal/store"
)

// TestGeneratorDeterminism: the seed is the only input to generation.
func TestGeneratorDeterminism(t *testing.T) {
	for _, sp := range specs {
		a := generate(sp, 7, 0.5, 0.5)
		b := generate(sp, 7, 0.5, 0.5)
		c := generate(sp, 8, 0.5, 0.5)
		if a.digest != b.digest {
			t.Errorf("%s: same seed gave digests %x and %x", sp.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %x", sp.name, a.digest)
		}
	}
}

// TestRecordShape: timestamps are trace-relative (inside one day, so no
// wall-clock value can be among them), non-decreasing, and on 30 s
// window boundaries; the other attributes stay inside their ranges.
func TestRecordShape(t *testing.T) {
	tb := newTables(3)
	flat := tb.records(saltLoad, 5000, 0, daySec)
	prev := uint64(0)
	for i := 0; i < len(flat); i += arity {
		rec := flat[i : i+arity]
		if rec[attrTime] < prev || rec[attrTime] >= daySec || rec[attrTime]%windowSec != 0 {
			t.Fatalf("record %d: timestamp %d after %d", i/arity, rec[attrTime], prev)
		}
		prev = rec[attrTime]
		if rec[attrOctets] < schema.OctetsThreshold || rec[attrOctets] >= schema.OctetsBound {
			t.Fatalf("record %d: octets %d out of range", i/arity, rec[attrOctets])
		}
		if rec[attrDest]&0xff != 0 || rec[attrDest] > 0xffffffff || rec[attrNode] >= numMonitors {
			t.Fatalf("record %d: %v", i/arity, rec)
		}
	}
	if prev < daySec-2*windowSec {
		t.Errorf("last timestamp %d does not reach the end of the day", prev)
	}
}

// TestOracleAgainstScan compares the prefix-sum oracle with a brute-force
// store.Scan over the same records, for every rectangle shape the
// workloads use.
func TestOracleAgainstScan(t *testing.T) {
	sch := schema.Index2(daySec)
	tb := newTables(11)
	flat := tb.records(saltLoad, 20000, 0, daySec)
	or := newOracle(flat)
	scan := store.NewScan(sch)
	for i := 0; i < len(flat); i += arity {
		scan.Insert(flat[i : i+arity])
	}
	brute := func(r schema.Rect) (int, uint64, [arity]uint64) {
		var sum uint64
		var sums [arity]uint64
		recs := scan.Query(r)
		for _, rec := range recs {
			sum += recHash(rec)
			for a := range sums {
				sums[a] += rec[a]
			}
		}
		return len(recs), sum, sums
	}
	aligned, unaligned := tb.aggPools(50)
	nonEmpty := 0
	for i, r := range tb.narrowPool(300, 0, daySec, narrowSpan(20000, 0, daySec)) {
		n, sum := or.narrow(r)
		bn, bsum, _ := brute(r)
		if n != bn || sum != bsum {
			t.Fatalf("narrow %d %v: oracle %d/%x, scan %d/%x", i, r, n, sum, bn, bsum)
		}
		if n > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Error("every narrow query was empty")
	}
	for i, r := range append(tb.widePool(100, 0, daySec), append(aligned, unaligned...)...) {
		n, sum := or.wide(r)
		cnt, sums := or.agg(r)
		bn, bsum, bsums := brute(r)
		if n != bn || sum != bsum || cnt != uint64(bn) || sums != bsums {
			t.Fatalf("time rect %d %v: oracle %d/%x/%v, scan %d/%x/%v", i, r, n, sum, sums, bn, bsum, bsums)
		}
		key := tb.dest[0]
		want := scan.Count(rect3(key, key|0xff, r.Lo[attrTime], r.Hi[attrTime], 0, schema.OctetsBound))
		if got := or.keyCount(key, r); got != uint64(want) {
			t.Fatalf("key count %v: oracle %d, scan %d", r, got, want)
		}
	}
}

// TestAlignedCellsAreRollupCells: the aligned aggregate windows are the
// inclusive-midpoint halvings of the time dimension, three levels deep.
func TestAlignedCellsAreRollupCells(t *testing.T) {
	cells := dyadicCells(daySec, 3)
	if len(cells) != 8 || cells[0] != [2]uint64{0, 10800} || cells[7][1] != daySec {
		t.Fatalf("cells %v", cells)
	}
	for i := 1; i < len(cells); i++ {
		if cells[i][0] != cells[i-1][1]+1 {
			t.Fatalf("cells %d and %d do not abut: %v", i-1, i, cells)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// the rule the harness applies.
func TestQuartilesMatchPython(t *testing.T) {
	xs := rand.New(rand.NewSource(1)).Perm(10)
	var fs []float64
	for _, x := range xs {
		fs = append(fs, float64(x+1))
	}
	q1, q2, q3 := quartiles(fs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if p := quantile([]float64{4, 1, 3, 2}, 0.5); math.Abs(p-2.5) > 1e-12 {
		t.Errorf("median of 1..4 = %v", p)
	}
}
