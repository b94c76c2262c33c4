//go:build !race

// Alloc-budget gates (CI runs these with -run
// 'AllocBudget|DecodeAllocationBounded' and no race detector, whose
// instrumentation would skew the counts). The budgets guard the hot
// paths the streaming ingest engine leans on — frame parsing must not
// allocate at all, pooled encode must stay at most one allocation per
// message once the pool is warm, an insert run and a wide answer each in
// a handful whatever their record count — and the
// hostile-input bound: Decode never allocates more than a constant
// multiple of its input.

package wire

import (
	"encoding/binary"
	"testing"
)

func TestAllocBudgetFlowFrameParse(t *testing.T) {
	recs := make([][]uint64, 64)
	for i := range recs {
		recs[i] = []uint64{uint64(i), uint64(i) * 3, 1 << 40, 7, 0}
	}
	buf := AppendFlowFrame(nil, 1, "index2-octets", 5, recs)
	dst := make([]uint64, 5)
	var sink uint64
	allocs := testing.AllocsPerRun(200, func() {
		f, err := ParseFlowFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < f.Count; i++ {
			r := f.Record(i, dst)
			sink += r[0]
		}
	})
	if allocs != 0 {
		t.Fatalf("flow-frame parse allocates %.1f times per frame, want 0", allocs)
	}
	_ = sink
}

func TestAllocBudgetFlowFrameAppend(t *testing.T) {
	recs := make([][]uint64, 64)
	for i := range recs {
		recs[i] = []uint64{uint64(i), 2, 3, 4, 5}
	}
	buf := AppendFlowFrame(nil, 1, "index2-octets", 5, recs)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendFlowFrame(buf[:0], 2, "index2-octets", 5, recs)
	})
	if allocs != 0 {
		t.Fatalf("flow-frame append allocates %.1f times per frame with a reused buffer, want 0", allocs)
	}
}

func TestAllocBudgetEncodePooled(t *testing.T) {
	msg := insertRun(1)
	// Warm the buffer and writer pools.
	for i := 0; i < 8; i++ {
		RecycleBuf(Encode(msg))
	}
	allocs := testing.AllocsPerRun(200, func() {
		RecycleBuf(Encode(msg))
	})
	if allocs > 1 {
		t.Fatalf("pooled encode allocates %.1f times per message, want <= 1", allocs)
	}
}

// TestAllocBudgetDecodeInsert: an insert run decodes in five allocations
// whatever its record count — the message, the codec, the origin and
// index strings and the one-run group list aliasing the frame — so a
// 64-record run costs what a run of one does.
func TestAllocBudgetDecodeInsert(t *testing.T) {
	const budget = 5
	for _, n := range []int{1, 64} {
		data := Encode(insertRun(n))
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := Decode(data); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != budget {
			t.Errorf("a %d-record insert run decodes in %.1f allocations, want %d", n, allocs, budget)
		}
	}
}

// TestDecodeAllocationBounded feeds every registered kind every prefix
// of a valid encoding followed by a length prefix of MaxSliceLen — the
// largest any cap admits — wherever the next field happens to start.
// Whatever Decode makes of it, it may not allocate more than 64 bytes
// per input byte plus a fixed 4 KiB, and it must fail unless the bytes
// happen to be a complete valid encoding.
func TestDecodeAllocationBounded(t *testing.T) {
	hostile := binary.AppendUvarint(nil, MaxSliceLen)
	for _, k := range registered() {
		valid := Encode(sample(t, k))
		for cut := 1; cut <= len(valid); cut++ {
			input := append(valid[:cut:cut], hostile...)
			m, err, got := decodeAllocating(input)
			if max := uint64(64*len(input) + 4<<10); got > max {
				t.Errorf("%s: %d-byte input (prefix %d + hostile length) made Decode allocate %d bytes, bound %d",
					k, len(input), cut, got, max)
			}
			if err == nil && len(Encode(m)) != len(input) {
				t.Errorf("%s: prefix %d + hostile length decoded without error", k, cut)
			}
		}
	}
}

// TestAllocBudgetDecodeQueryResp: a wide answer decodes without a slice
// per record — a QueryResp in five allocations whatever its size (the
// message, the codec, the sender's address, the versions and the one-run
// list aliasing the frame), a ClientQueryResp in four (the message, the
// codec, the records and their one arena).
func TestAllocBudgetDecodeQueryResp(t *testing.T) {
	for _, tc := range []struct {
		m      Message
		budget float64
	}{
		{wideAnswer(2000), 5},
		{&ClientQueryResp{ReqID: 1, Complete: true, Responders: 4, Recs: wideRecords(2000)}, 4},
	} {
		data := Encode(tc.m)
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := Decode(data); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.budget {
			t.Errorf("%s of 2000 records decodes in %.0f allocations, want <= %.0f", tc.m.Kind(), allocs, tc.budget)
		}
	}
}
