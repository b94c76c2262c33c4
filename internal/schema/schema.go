// Package schema defines MIND index schemas and the multi-attribute data
// records inserted into an index.
//
// Every attribute value in MIND is an unsigned 64-bit integer. This covers
// all the attribute kinds that appear in the paper's network-monitoring
// workloads — IPv4 addresses and prefixes, timestamps (Unix seconds), byte
// counts, fanout counts, flow sizes and node (monitor) identifiers — and
// keeps the data-space embedding uniform.
//
// A schema declares an ordered list of attributes. The first IndexDims
// attributes are the indexed dimensions: they define the multi-dimensional
// data space the index embeds on the overlay, and range queries are
// expressed over them. The remaining attributes are payload carried with
// the record and returned by queries (the paper's Index-1, for example,
// indexes (dest_prefix, timestamp, fanout) and carries (source_prefix,
// node) as payload).
package schema

import (
	"fmt"
	"strings"
)

// Kind documents how an attribute should be interpreted and rendered;
// all values are uint64. It never shapes the data-space embedding, whose
// cuts cycle through the indexed dimensions whatever their kinds. It
// does shape each node's local partitions: the first indexed KindTime
// attribute is cut on two levels of every three of the store's k-d
// partition and of the aggregate rollup (CutDim), because monitoring
// queries are windows in time.
type Kind uint8

const (
	KindUint Kind = iota // plain counter / size
	KindIPv4             // IPv4 address or /24-style prefix key
	KindTime             // Unix timestamp, seconds
	KindPort             // transport port
	KindNode             // monitor / router identifier
)

var kindNames = map[Kind]string{
	KindUint: "uint",
	KindIPv4: "ipv4",
	KindTime: "time",
	KindPort: "port",
	KindNode: "node",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Attr describes one attribute of an index schema.
type Attr struct {
	Name string
	Kind Kind
	// Max is the inclusive upper bound of the attribute's value range used
	// by the data-space embedding. Values above Max are clamped into the
	// topmost region of the space (the paper assigns out-of-bound tuples
	// "the largest possible range"; fewer than 0.1% of tuples exceed the
	// chosen bounds). Max = 0 means the full uint64 range.
	Max uint64
}

// Bound returns the effective inclusive upper bound of the attribute.
func (a Attr) Bound() uint64 {
	if a.Max == 0 {
		return ^uint64(0)
	}
	return a.Max
}

// Schema describes a MIND index: a globally unique tag, the attribute
// list, and how many leading attributes are indexed dimensions.
type Schema struct {
	Tag       string
	Attrs     []Attr
	IndexDims int
}

// Validate checks structural invariants of the schema.
func (s *Schema) Validate() error {
	if s.Tag == "" {
		return fmt.Errorf("schema: empty tag")
	}
	if len(s.Attrs) == 0 {
		return fmt.Errorf("schema %q: no attributes", s.Tag)
	}
	if s.IndexDims < 1 || s.IndexDims > len(s.Attrs) {
		return fmt.Errorf("schema %q: IndexDims %d out of range [1,%d]", s.Tag, s.IndexDims, len(s.Attrs))
	}
	seen := make(map[string]bool, len(s.Attrs))
	for i, a := range s.Attrs {
		if a.Name == "" {
			return fmt.Errorf("schema %q: attribute %d has empty name", s.Tag, i)
		}
		if seen[a.Name] {
			return fmt.Errorf("schema %q: duplicate attribute %q", s.Tag, a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Dims returns the number of indexed dimensions.
func (s *Schema) Dims() int { return s.IndexDims }

// TimeDim returns the position of the first indexed KindTime attribute,
// or -1 when no indexed attribute is a time: the dimension versioning
// (§3.7) buckets by and CutDim cuts most often.
func (s *Schema) TimeDim() int {
	for i := 0; i < s.IndexDims; i++ {
		if s.Attrs[i].Kind == KindTime {
			return i
		}
	}
	return -1
}

// CutDim is the cut schedule of a node's local partitions: the dimension
// a cut at depth k splits, for dims indexed dimensions whose first time
// attribute is time (TimeDim; -1: none). It is the one place the choice
// is made — the store's k-d levels (build and descent) and the aggregate
// rollup's midpoint cells (fold and resolve) all call it, so a rollup
// cell and a store subtree are cut on the same dimensions.
//
// The queries a monitor issues are windows in time (PAPER.md §1: flows
// to a prefix above a size "in interval T"), so with a time attribute
// the schedule cuts it on two levels of every three — depths 3j and
// 3j+1 — and on depth 3j+2 cuts the other indexed dimensions in turn, in
// schema order. Every dimension is still cut, so a query that pins one
// of the others narrowly keeps pruning; 2:1 is the measured knee between
// time windows and narrow prefix queries (DESIGN.md §4h). Without a time
// attribute the dimensions take turns, the embedding's own round robin.
func CutDim(k, dims, time int) int {
	if time < 0 || dims == 1 {
		return k % dims
	}
	if k%3 != 2 {
		return time
	}
	d := k / 3 % (dims - 1) // the (k/3)-th of the others, cyclically
	if d >= time {
		d++
	}
	return d
}

// Arity returns the total number of attributes per record.
func (s *Schema) Arity() int { return len(s.Attrs) }

// Bounds returns the inclusive upper bound of each indexed dimension.
func (s *Schema) Bounds() []uint64 {
	b := make([]uint64, s.IndexDims)
	for i := 0; i < s.IndexDims; i++ {
		b[i] = s.Attrs[i].Bound()
	}
	return b
}

// String renders the schema in a compact single-line form.
func (s *Schema) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s(", s.Tag)
	for i, a := range s.Attrs {
		if i > 0 {
			sb.WriteString(", ")
		}
		if i == s.IndexDims {
			sb.WriteString("| ")
		}
		fmt.Fprintf(&sb, "%s:%s", a.Name, a.Kind)
	}
	sb.WriteString(")")
	return sb.String()
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c := &Schema{Tag: s.Tag, IndexDims: s.IndexDims}
	c.Attrs = append([]Attr(nil), s.Attrs...)
	return c
}

// Record is one multi-attribute data item; Record[i] is the value of
// Attrs[i]. Records are positional and schema-typed by context.
type Record []uint64

// Clone returns a copy of the record.
func (r Record) Clone() Record { return append(Record(nil), r...) }

// Point extracts the indexed-dimension coordinates of the record under the
// given schema, clamping each coordinate to the attribute bound.
func (r Record) Point(s *Schema) []uint64 {
	p := make([]uint64, s.IndexDims)
	for i := 0; i < s.IndexDims; i++ {
		v := r[i]
		if b := s.Attrs[i].Bound(); v > b {
			v = b
		}
		p[i] = v
	}
	return p
}

// PointInto is Point writing into a caller-provided scratch slice
// instead of allocating; it returns dst resized to the indexed
// dimensionality (reallocating only if dst is too small). Hot paths that
// compute a point per record use this to keep one scratch slice alive
// across a whole scan.
func (r Record) PointInto(s *Schema, dst []uint64) []uint64 {
	if cap(dst) < s.IndexDims {
		dst = make([]uint64, s.IndexDims)
	}
	dst = dst[:s.IndexDims]
	for i := 0; i < s.IndexDims; i++ {
		v := r[i]
		if b := s.Attrs[i].Bound(); v > b {
			v = b
		}
		dst[i] = v
	}
	return dst
}

// CheckRecord verifies the record arity against the schema.
func (s *Schema) CheckRecord(r Record) error {
	if len(r) != len(s.Attrs) {
		return fmt.Errorf("schema %q: record has %d attributes, want %d", s.Tag, len(r), len(s.Attrs))
	}
	return nil
}

// Rect is an axis-aligned hyper-rectangle over the indexed dimensions,
// with inclusive bounds: Lo[i] <= x_i <= Hi[i]. A query in MIND is a Rect
// (wildcarded attributes use the full [0, bound] range).
type Rect struct {
	Lo, Hi []uint64
}

// NewRect allocates a rect of the given dimensionality spanning the whole
// space defined by bounds.
func NewRect(bounds []uint64) Rect {
	lo := make([]uint64, len(bounds))
	hi := append([]uint64(nil), bounds...)
	return Rect{Lo: lo, Hi: hi}
}

// FullRect returns the rect covering the schema's entire indexed space.
func (s *Schema) FullRect() Rect { return NewRect(s.Bounds()) }

// Dims returns the rect dimensionality.
func (r Rect) Dims() int { return len(r.Lo) }

// Valid reports whether Lo <= Hi on every dimension and lengths agree.
func (r Rect) Valid() bool {
	if len(r.Lo) != len(r.Hi) || len(r.Lo) == 0 {
		return false
	}
	for i := range r.Lo {
		if r.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Clone deep-copies the rect.
func (r Rect) Clone() Rect {
	return Rect{Lo: append([]uint64(nil), r.Lo...), Hi: append([]uint64(nil), r.Hi...)}
}

// Contains reports whether point p lies inside the rect.
func (r Rect) Contains(p []uint64) bool {
	for i := range r.Lo {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRecord reports whether the record's indexed point (clamped per
// schema) lies inside the rect.
func (r Rect) ContainsRecord(s *Schema, rec Record) bool {
	for i := 0; i < s.IndexDims; i++ {
		v := rec[i]
		if b := s.Attrs[i].Bound(); v > b {
			v = b
		}
		if v < r.Lo[i] || v > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether two rects overlap (inclusive bounds).
func (r Rect) Intersects(o Rect) bool {
	for i := range r.Lo {
		if r.Hi[i] < o.Lo[i] || o.Hi[i] < r.Lo[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether o is entirely inside r.
func (r Rect) ContainsRect(o Rect) bool {
	for i := range r.Lo {
		if o.Lo[i] < r.Lo[i] || o.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of two overlapping rects; ok is false
// if they do not overlap.
func (r Rect) Intersect(o Rect) (Rect, bool) {
	if !r.Intersects(o) {
		return Rect{}, false
	}
	out := r.Clone()
	for i := range out.Lo {
		if o.Lo[i] > out.Lo[i] {
			out.Lo[i] = o.Lo[i]
		}
		if o.Hi[i] < out.Hi[i] {
			out.Hi[i] = o.Hi[i]
		}
	}
	return out, true
}

// String renders the rect as [lo..hi] per dimension.
func (r Rect) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i := range r.Lo {
		if i > 0 {
			sb.WriteString(" × ")
		}
		fmt.Fprintf(&sb, "[%d..%d]", r.Lo[i], r.Hi[i])
	}
	sb.WriteByte('}')
	return sb.String()
}
