package store

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mind/internal/schema"
	"mind/internal/wire"
)

// farWord is the word a relocated level's leaves start past: 2²⁶, the
// first word whose bit position no longer fits 32 bits (TestLeafOffsetFar).
const farWord = 1 << 26

// farWords is one zeroed slice of farWord + 4 096 words, shared by every
// run: a fresh allocation of it maps pages the test never touches but
// the few it copies a level's words into.
var farWords = sync.OnceValue(func() []uint64 { return make([]uint64, farWord+4096) })

// relocate returns a copy of level s whose packed words start at word
// farWord + *at of farWords, every leaf's offset moved with them, and
// advances *at past them; a level too large to move stays where it is.
func relocate(s *Static, at *int) *Static {
	far := *s
	move := func(offs []uint32, words []uint64) ([]uint32, []uint64) {
		base := farWord + *at
		if len(words) == 0 || base+len(words) > len(farWords()) {
			return offs, words
		}
		moved := make([]uint32, len(offs))
		for j, o := range offs {
			moved[j] = o + uint32(base)
		}
		*at += len(words)
		return moved, farWords()[:base+len(words)]
	}
	far.narrow.offs, far.narrow.words = move(s.narrow.offs, s.narrow.words)
	far.wide.offs, far.wide.words = move(s.wide.offs, s.wide.words)
	copy(far.narrow.words[len(far.narrow.words)-len(s.narrow.words):], s.narrow.words)
	copy(far.wide.words[len(far.wide.words)-len(s.wide.words):], s.wide.words)
	return &far
}

// FuzzPackedView holds the responder's pack (wire.Groups.AppendBatch,
// which packs a batch's selection at the frames of the leaf or block it
// rests in: schema.Batch's Frames and Pack) to the decoded path: for
// every batch a read hands over, the group it packs must decode — after
// the originator's header check, through Encode and Decode — to exactly
// the rows, in order, that Batch.Rows selects and that a list packed
// from those rows (AppendRows) decodes to. The stores are a merging
// ladder (narrow levels, and wide ones once a value passes 2³²), an
// appending ladder whose sealed blocks are read a 32-row run at a time
// (runs that start inside a block), and the merging ladder's levels
// relocated past word 2²⁶. Each column draws its values from one of seven
// shapes: small coordinates, one value (width 0), values sharing low
// zero bits (a shifted column), full 64-bit values with zeros among
// them (a leaf framed from 0 at width 64), values near 2⁶⁴ or full
// 64-bit ones without zeros (whose frames a group cannot carry as they
// are: the pack falls back to rows) and values straddling 2³². Windows constrain 0 to
// 3 dimensions, at edges drawn from the stored values, so leaves lie
// inside them (copied whole), straddle them (tested columns framed anew,
// the rest gathered) and outside them.
func FuzzPackedView(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(0x0000), uint8(0x00)) // small coordinates, merging ladder
	f.Add(int64(2), uint16(500), uint16(0x5210), uint8(0x13)) // every carried shape, appending ladder
	f.Add(int64(3), uint16(699), uint16(0x0505), uint8(0x86)) // straddling 2³²: wide levels, longer blocks
	f.Add(int64(4), uint16(250), uint16(0x4400), uint8(0x31)) // near 2⁶⁴: the fallback to rows
	f.Add(int64(5), uint16(640), uint16(0x3023), uint8(0xde)) // width 64 from 0, shifted columns
	f.Add(int64(6), uint16(64), uint16(0x1061), uint8(0x09))  // a few leaves, one-value and 64-bit columns
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shapes uint16, mode uint8) {
		r := rand.New(rand.NewSource(seed))
		sch := &schema.Schema{Tag: "v", Attrs: []schema.Attr{{Name: "x"}, {Name: "y"}, {Name: "z"}, {Name: "payload"}}, IndexDims: 3} // unbounded: a window edge may be any value
		arity := sch.Arity()
		value := func(c int) uint64 {
			switch (shapes >> (4 * c)) % 8 {
			case 1:
				return uint64(seed) * 0x9e3779b97f4a7c15
			case 2:
				return uint64(r.Intn(1<<12)) << (8 + c)
			case 3:
				return r.Uint64() &^ (uint64(r.Intn(4)) - 1) // zero one time in four: a leaf framed from 0 at width 64
			case 4:
				return math.MaxUint64 - uint64(r.Intn(1<<10))
			case 5:
				return 1<<32 - 512 + uint64(r.Intn(1024))
			case 6:
				return r.Uint64()
			}
			return uint64(r.Intn(10000))
		}
		recs := make([]schema.Record, 1+int(n)%700)
		for i := range recs {
			recs[i] = make(schema.Record, arity)
			for c := range recs[i] {
				recs[i][c] = value(c)
			}
		}
		merging := NewSharded(sch, Options{})
		merging.tailCap = 16 + int(mode>>4)
		appending := NewSharded(sch, Options{Append: true})
		appending.tailCap = 40 + 24*int(mode>>6) // blocks of 40 to 112 rows: runs that start inside a block
		for _, rec := range recs {
			merging.Insert(rec)
			appending.Insert(rec)
		}
		if mode&1 != 0 {
			merging.Compact()
		}
		far, at := NewSharded(sch, Options{}), 0
		var moved []*Static
		for _, l := range merging.snap.Load().levels {
			moved = append(moved, relocate(l, &at))
		}
		far.snap.Store(&ladderSnap{levels: moved})

		for q := 0; q < 4; q++ {
			rect := schema.Rect{Lo: []uint64{0, 0, 0}, Hi: []uint64{math.MaxUint64, math.MaxUint64, math.MaxUint64}}
			for _, d := range r.Perm(3)[:int(mode>>1+byte(q))%4] {
				a, b := recs[r.Intn(len(recs))][d], recs[r.Intn(len(recs))][d]
				rect.Lo[d], rect.Hi[d] = min(a, b), max(a, b)
			}
			for name, e := range map[string]*Sharded{"merging": merging, "appending": appending, "far": far} {
				e.VisitBatches(rect, func(b *schema.Batch) {
					var packed wire.Groups
					packed.AppendBatch(b) // before Rows: the pack decodes nothing it sends
					rows, sel := b.Rows()
					var want []schema.Record
					for _, o := range sel {
						want = append(want, slices.Clone(rows[o:int(o)+arity]))
					}
					var decoded wire.Groups
					decoded.AppendRows(rows, sel, arity)
					for how, l := range map[string]wire.Groups{"packed from the view": packed, "packed from the rows": decoded} {
						m, err := wire.Decode(wire.Encode(&wire.QueryResp{ReqID: 1, Recs: l}))
						if err != nil {
							t.Fatalf("%s %v: a batch %s fails the originator's check: %v", name, rect, how, err)
						}
						if got := m.(*wire.QueryResp).Recs.Records(); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %v: a batch %s decodes to\n%v\nwant the rows Rows selects\n%v", name, rect, how, got, want)
						}
					}
				})
			}
		}
	})
}
