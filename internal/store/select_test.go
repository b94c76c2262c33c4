package store

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mind/internal/schema"
)

// selectWant is the selection by definition: the word offsets of the
// rows whose clamped point rectContains admits.
func selectWant(bounds []uint64, rect schema.Rect, rows []uint64, arity int) []int32 {
	var want []int32
	for b := 0; b < len(rows); b += arity {
		if rectContains(bounds, rect, rows[b:b+arity]) {
			want = append(want, int32(b))
		}
	}
	return want
}

// TestSelectRows pins the branch-free selection against its definition:
// a table of the edges the wrapping compare and the column-at-a-time
// order must get right, a random sweep against rectContains, and a full
// tail handed over in leaf-sized runs.
func TestSelectRows(t *testing.T) {
	const arity = 4
	bounds := sch3().Bounds()
	m := uint64(math.MaxUint64)
	flat := func(recs ...[]uint64) []uint64 { return slices.Concat(recs...) }
	rec := func(x, y, z uint64) []uint64 { return []uint64{x, y, z, 7} }
	windowOf := func(lo, hi []uint64) []bound {
		var buf windowBuf
		w, ok := openWindow(bounds, schema.Rect{Lo: lo, Hi: hi}, &buf)
		if !ok {
			t.Fatalf("window [%v, %v] cannot match", lo, hi)
		}
		return slices.Clone(w.con)
	}
	// A leaf whose x is selective (two rows of 32) and whose y and z admit
	// all but one row each.
	var selective [][]uint64
	for i := uint64(0); i < leafRows; i++ {
		selective = append(selective, rec(i, i*100, 9999-i*100))
	}
	cases := []struct {
		name string
		rows []uint64
		con  []bound
		want []int // selected row indices
	}{
		{"a value below lo wraps above the span",
			flat(rec(5, 0, 0), rec(100, 0, 0), rec(150, 0, 0), rec(151, 0, 0), rec(0, 0, 0), rec(99, 0, 0)),
			[]bound{{dim: 0, lo: 100, span: 50}}, []int{1, 2}},
		{"span MaxUint64 admits every value",
			flat(rec(0, 0, 0), rec(0, m, 0), rec(0, 12345, 0), rec(0, m-1, 0)),
			[]bound{{dim: 1, lo: 0, span: m}}, []int{0, 1, 2, 3}},
		{"a window up at MaxUint64",
			flat(rec(m-1, 0, 0), rec(m, 0, 0), rec(0, 0, 0), rec(m-2, 0, 0)),
			[]bound{{dim: 0, lo: m - 1, span: 1}}, []int{0, 1}},
		{"raw values above the schema bound clamp into a window reaching it",
			flat(rec(50000, 0, 0), rec(9999, 0, 0), rec(8999, 0, 0), rec(m, 0, 0), rec(9000, 0, 0)),
			windowOf([]uint64{9000, 0, 0}, []uint64{9999, 9999, 9999}), []int{0, 1, 3, 4}},
		{"raw values above the schema bound miss a window below it",
			flat(rec(50000, 0, 0), rec(9998, 0, 0), rec(10000, 0, 0)),
			windowOf([]uint64{9000, 0, 0}, []uint64{9998, 9999, 9999}), []int{1}},
		{"a selective first column, then non-selective ones",
			flat(selective...),
			windowOf([]uint64{3, 100, 0}, []uint64{4, 9999, 9998}), []int{3, 4}},
		{"the non-selective columns still reject",
			flat(selective...),
			windowOf([]uint64{0, 100, 0}, []uint64{1, 9999, 9998}), []int{1}},
		{"no constrained dimension selects every row",
			flat(rec(0, 0, 0), rec(m, m, m), rec(3, 4, 5)),
			nil, []int{0, 1, 2}},
		{"nothing inside",
			flat(rec(1, 1, 1), rec(2, 2, 2)),
			[]bound{{dim: 2, lo: 3, span: 0}}, nil},
	}
	for _, tc := range cases {
		var sel selection
		got := selectRows(tc.rows, arity, tc.con, &sel)
		want := make([]int32, len(tc.want))
		for i, r := range tc.want {
			want[i] = int32(r * arity)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: selected offsets %v, want %v", tc.name, got, want)
		}
	}

	t.Run("random against rectContains", func(t *testing.T) {
		r := rand.New(rand.NewSource(30))
		val := func() uint64 { return fuzzVal(byte(r.Intn(4)), byte(r.Intn(256))) }
		var sel selection
		for it := 0; it < 5000; it++ {
			rows := make([]uint64, (1+r.Intn(leafRows))*arity)
			for i := range rows {
				rows[i] = val()
				if it%2 == 1 { // a leaf of a narrow level: every value fits 32 bits
					rows[i] &= math.MaxUint32
				}
			}
			rect := schema.Rect{Lo: make([]uint64, 3), Hi: make([]uint64, 3)}
			for d := range rect.Lo {
				switch r.Intn(4) {
				case 0: // unconstrained
					rect.Lo[d], rect.Hi[d] = 0, m
				default:
					rect.Lo[d], rect.Hi[d] = val(), val()
					if rect.Lo[d] > rect.Hi[d] {
						rect.Lo[d], rect.Hi[d] = rect.Hi[d], rect.Lo[d]
					}
				}
			}
			want := selectWant(bounds, rect, rows, arity)
			var buf windowBuf
			w, ok := openWindow(bounds, rect, &buf)
			if !ok {
				if len(want) != 0 {
					t.Fatalf("%v: window closed, but %d rows lie inside", rect, len(want))
				}
				continue
			}
			if got := selectRows(rows, arity, w.con, &sel); !slices.Equal(got, want) {
				t.Fatalf("%v over %v: selected %v, want %v", rect, rows, got, want)
			}
		}
	})

	t.Run("a full tail in leaf-sized runs", func(t *testing.T) {
		r := rand.New(rand.NewSource(31))
		rows := make([]uint64, tailRows*arity)
		for i := range rows {
			rows[i] = r.Uint64() % 12000
		}
		rect := schema.Rect{Lo: []uint64{0, 2000, 0}, Hi: []uint64{9999, 7000, m}}
		var buf windowBuf
		w, _ := openWindow(bounds, rect, &buf)
		var sc scratch
		var got []int32
		runs := 0
		scanBatches(rows, arity, w.con, &sc, func(b *schema.Batch) {
			run, in := b.Rows()
			base := len(rows) - cap(run) // run is a view: its start within rows
			if base != runs*leafRows*arity || len(run) != leafRows*arity {
				t.Fatalf("run %d starts at word %d with %d words, want word %d and %d", runs, base, len(run), runs*leafRows*arity, leafRows*arity)
			}
			for _, o := range in {
				got = append(got, int32(base)+o)
			}
			runs++
		})
		if runs != tailRows/leafRows {
			t.Fatalf("%d runs over a %d-row tail, want %d", runs, tailRows, tailRows/leafRows)
		}
		if want := selectWant(bounds, rect, rows, arity); !slices.Equal(got, want) {
			t.Fatalf("tail selection: %d rows, want %d", len(got), len(want))
		}
	})
}
