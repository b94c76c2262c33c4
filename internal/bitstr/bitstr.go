// Package bitstr implements variable-length bit strings ("codes") of up to
// 64 bits. Codes serve two roles in MIND: they are the addresses of nodes
// on the hypercube overlay (leaves of a binary partition of the code
// space), and they are the positions that data items and queries hash to
// in the data-space embedding. A shorter code is said to be "shallower";
// the empty code is the root of the partition.
//
// Bits are left-aligned inside a uint64: bit i of the code (0-indexed from
// the first cut) is stored at machine-bit 63-i. This representation makes
// prefix comparison a mask-and-compare and keeps lexicographic order equal
// to unsigned integer order for equal-length codes.
package bitstr

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxLen is the maximum code length in bits.
const MaxLen = 64

// Code is an immutable bit string of length 0..MaxLen.
type Code struct {
	b uint64 // left-aligned bits; bits beyond n are zero
	n uint8  // length in bits
}

// Empty is the zero-length code (the root of the code space).
var Empty = Code{}

// New builds a code from the low n bits of v (most significant of those n
// bits becomes bit 0 of the code). It panics if n is out of range.
func New(v uint64, n int) Code {
	if n < 0 || n > MaxLen {
		panic(fmt.Sprintf("bitstr: invalid code length %d", n))
	}
	if n == 0 {
		return Code{}
	}
	return Code{b: v << (MaxLen - uint(n)), n: uint8(n)}
}

// Parse converts a string of '0' and '1' runes into a Code.
func Parse(s string) (Code, error) {
	if len(s) > MaxLen {
		return Code{}, fmt.Errorf("bitstr: code %q longer than %d bits", s, MaxLen)
	}
	var c Code
	for _, r := range s {
		switch r {
		case '0':
			c = c.Append(0)
		case '1':
			c = c.Append(1)
		default:
			return Code{}, fmt.Errorf("bitstr: invalid rune %q in code", r)
		}
	}
	return c, nil
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(s string) Code {
	c, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}

// Len returns the code length in bits.
func (c Code) Len() int { return int(c.n) }

// IsEmpty reports whether the code has zero length.
func (c Code) IsEmpty() bool { return c.n == 0 }

// Bit returns bit i (0 or 1). It panics if i is out of range.
func (c Code) Bit(i int) int {
	if i < 0 || i >= int(c.n) {
		panic(fmt.Sprintf("bitstr: bit index %d out of range for %d-bit code", i, c.n))
	}
	return int(c.b >> (MaxLen - 1 - uint(i)) & 1)
}

// Append returns a copy of c with one extra bit appended.
func (c Code) Append(bit int) Code {
	if c.n >= MaxLen {
		panic("bitstr: append to full code")
	}
	nb := c.b
	if bit != 0 {
		nb |= 1 << (MaxLen - 1 - uint(c.n))
	}
	return Code{b: nb, n: c.n + 1}
}

// Prefix returns the first k bits of c. It panics if k exceeds c's length.
func (c Code) Prefix(k int) Code {
	if k < 0 || k > int(c.n) {
		panic(fmt.Sprintf("bitstr: prefix length %d out of range for %d-bit code", k, c.n))
	}
	if k == 0 {
		return Code{}
	}
	mask := ^uint64(0) << (MaxLen - uint(k))
	return Code{b: c.b & mask, n: uint8(k)}
}

// Parent returns the code with the last bit removed.
func (c Code) Parent() Code {
	if c.n == 0 {
		panic("bitstr: parent of empty code")
	}
	return c.Prefix(int(c.n) - 1)
}

// Sibling returns the code with the last bit flipped. On the virtual
// binary tree of codes, this is the node's sibling leaf.
func (c Code) Sibling() Code {
	if c.n == 0 {
		panic("bitstr: sibling of empty code")
	}
	return Code{b: c.b ^ (1 << (MaxLen - uint(c.n))), n: c.n}
}

// FlipBit returns a copy of c with bit i flipped.
func (c Code) FlipBit(i int) Code {
	if i < 0 || i >= int(c.n) {
		panic(fmt.Sprintf("bitstr: flip index %d out of range for %d-bit code", i, c.n))
	}
	return Code{b: c.b ^ (1 << (MaxLen - 1 - uint(i))), n: c.n}
}

// NeighborCode returns the length-(i+1) code that agrees with c on the
// first i bits and differs at bit i: the address prefix of the subtree
// holding c's dimension-i hypercube neighbors.
func (c Code) NeighborCode(i int) Code {
	return c.Prefix(i + 1).FlipBit(i)
}

// IsPrefixOf reports whether c is a (non-strict) prefix of d.
func (c Code) IsPrefixOf(d Code) bool {
	if c.n > d.n {
		return false
	}
	if c.n == 0 {
		return true
	}
	mask := ^uint64(0) << (MaxLen - uint(c.n))
	return (c.b^d.b)&mask == 0
}

// CommonPrefixLen returns the length of the longest common prefix of c and d.
func (c Code) CommonPrefixLen(d Code) int {
	min := int(c.n)
	if int(d.n) < min {
		min = int(d.n)
	}
	if min == 0 {
		return 0
	}
	x := c.b ^ d.b
	lz := bits.LeadingZeros64(x)
	if lz > min {
		return min
	}
	return lz
}

// Equal reports exact equality of length and bits.
func (c Code) Equal(d Code) bool { return c.n == d.n && c.b == d.b }

// Less orders codes lexicographically, with a shorter code that is a
// prefix of a longer one sorting first.
func (c Code) Less(d Code) bool {
	if c.b != d.b {
		return c.b < d.b
	}
	return c.n < d.n
}

// Compare returns -1, 0 or +1 per the Less ordering.
func (c Code) Compare(d Code) int {
	switch {
	case c.Equal(d):
		return 0
	case c.Less(d):
		return -1
	default:
		return 1
	}
}

// Uint64 returns the code bits right-aligned (as an integer in [0, 2^n)).
func (c Code) Uint64() uint64 {
	if c.n == 0 {
		return 0
	}
	return c.b >> (MaxLen - uint(c.n))
}

// String renders the code as a string of '0'/'1'; the empty code renders
// as "ε".
func (c Code) String() string {
	if c.n == 0 {
		return "ε"
	}
	var sb strings.Builder
	sb.Grow(int(c.n))
	for i := 0; i < int(c.n); i++ {
		if c.Bit(i) == 0 {
			sb.WriteByte('0')
		} else {
			sb.WriteByte('1')
		}
	}
	return sb.String()
}

// Pack encodes the code into (bits, len) for wire transfer.
func (c Code) Pack() (uint64, uint8) { return c.b, c.n }

// Unpack rebuilds a code from Pack's output, zeroing any stray bits past
// the declared length so that Equal and IsPrefixOf stay sound on
// adversarial input.
func Unpack(b uint64, n uint8) Code {
	if n > MaxLen {
		n = MaxLen
	}
	if n == 0 {
		return Code{}
	}
	mask := ^uint64(0) << (MaxLen - uint(n))
	return Code{b: b & mask, n: n}
}
