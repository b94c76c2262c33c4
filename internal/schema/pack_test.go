package schema

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPackSelection: framing and packing the rows a selection lists, in
// place, gives exactly the frames and words of the same rows gathered
// into a run of their own — at both storage widths, for selections of
// every size, values of every width, columns of equal values and ones
// sharing low zero bits — and Unpack reads the gathered values back.
func TestPackSelection(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	for try := 0; try < 2000; try++ {
		arity := 1 + r.Intn(6)
		n := 1 + r.Intn(40)
		rows := make([]uint64, n*arity)
		for c := 0; c < arity; c++ {
			shift, width, base := uint(r.Intn(12)), uint(r.Intn(65)), r.Uint64()
			for i := c; i < len(rows); i += arity {
				switch c % 3 {
				case 0:
					rows[i] = base // a column of equal values
				case 1:
					rows[i] = r.Uint64() >> (64 - width) << shift // low zero bits shared
				default:
					rows[i] = r.Uint64() >> uint(r.Intn(65))
				}
			}
		}
		var sel []int32
		var gathered []uint64
		for i := 0; i < n; i++ {
			if r.Intn(3) > 0 {
				sel = append(sel, int32(i*arity))
				gathered = append(gathered, rows[i*arity:(i+1)*arity]...)
			}
		}
		if len(sel) == 0 {
			continue
		}
		check(t, rows, sel, gathered, arity)
		if narrow := narrowed(rows); narrow != nil {
			check(t, narrow, sel, gathered, arity)
		}
	}
}

// narrowed is rows as 32-bit words, or nil when some value needs more.
func narrowed(rows []uint64) []uint32 {
	out := make([]uint32, len(rows))
	for i, v := range rows {
		if v>>32 != 0 {
			return nil
		}
		out[i] = uint32(v)
	}
	return out
}

func check[W uint32 | uint64](t *testing.T, rows []W, sel []int32, gathered []uint64, arity int) {
	t.Helper()
	frames := FramesOf(nil, rows, sel, arity)
	if want := FramesOf(nil, gathered, nil, arity); !slices.Equal(frames, want) {
		t.Fatalf("frames over the selection %v, over the gathered rows %v", frames, want)
	}
	words := make([]uint64, PackedWords(len(sel), frames)+1)
	PackRun(words, rows, sel, arity, frames)
	want := make([]uint64, len(words))
	PackRun(want, gathered, nil, arity, frames)
	if !slices.Equal(words, want) {
		t.Fatalf("packed from the selection %x, from the gathered rows %x", words, want)
	}
	var cols []Column
	start := uint(0)
	for _, f := range frames {
		cols = append(cols, NewColumn(f.Ref, f.Shift, f.Width, start))
		start += uint(len(sel)) * f.Width
	}
	got := make([]uint64, len(gathered))
	for c := range cols {
		DecodeColumn(got, cols, c, words, 0)
	}
	if !slices.Equal(got, gathered) {
		t.Fatalf("unpacked %v, want %v", got, gathered)
	}
}
