package adoptcommit

import (
	"fmt"
	"hash/fnv"

	"github.com/oblivious-consensus/conciliator/internal/memory"
)

// ConflictDetector is the building block of register-based adopt-commit:
// each process calls Check once with its value. Check returns true ("no
// conflict") subject to:
//
//   - If every Check has the same input, every Check returns true.
//   - No two Checks with different inputs both return true, regardless of
//     interleaving.
//
// The second property is the load-bearing one: it makes the value written
// to an adopt-commit object's clean register unique.
type ConflictDetector[V comparable] interface {
	Check(ctx memory.Context, v V) bool
	// StepBound bounds the steps of one Check.
	StepBound() int
}

// FlagsCD is a k-valued single-digit conflict detector over values encoded
// as indices in [0, k): write your own flag, then read the other k-1. If
// any other flag is set, report conflict. Correctness of the asymmetric
// case: if p ok'd value a and q ok'd value b != a, then p wrote flag[a]
// before reading flag[b] clear, so q wrote flag[b] after p's read, hence
// q's read of flag[a] came after p's write and saw it — contradiction.
//
// Cost is k steps, so FlagsCD alone is only sensible for tiny k; DigitCD
// runs one binary detector per digit for larger domains.
type FlagsCD struct {
	flags *memory.RegisterArray[struct{}]
}

var _ ConflictDetector[int] = (*FlagsCD)(nil)

// NewFlagsCD returns a conflict detector over values 0..k-1.
func NewFlagsCD(k int) *FlagsCD {
	if k < 2 {
		panic("adoptcommit: FlagsCD needs at least two values")
	}
	return &FlagsCD{flags: memory.NewRegisterArray[struct{}](k)}
}

// Check implements ConflictDetector. v must be in [0, k).
func (c *FlagsCD) Check(ctx memory.Context, v int) bool {
	c.flags.At(v).Write(ctx, struct{}{})
	ok := true
	for i := 0; i < c.flags.Len(); i++ {
		if i == v {
			continue
		}
		if _, set := c.flags.At(i).Read(ctx); set {
			// Keep reading: steps are bounded either way and finishing
			// the collect keeps Check's cost schedule-independent.
			ok = false
		}
	}
	return ok
}

// StepBound implements ConflictDetector.
func (c *FlagsCD) StepBound() int { return c.flags.Len() }

// Reset clears every flag so the detector can serve a fresh set of
// processes. No Check may be in flight (see memory.Register.Reset).
func (c *FlagsCD) Reset() { c.flags.Reset() }

// Encoder injectively maps protocol values to fixed-width bit strings for
// digit decomposition. Injectivity on the values actually proposed is
// required for correctness.
type Encoder[V comparable] struct {
	// Bits is the encoding width; Encode must return values < 2^Bits.
	Bits int
	// Encode maps a value to its code.
	Encode func(V) uint64
}

// IdentityEncoder encodes small non-negative integers as themselves using
// the given width.
func IdentityEncoder(bits int) Encoder[int] {
	return Encoder[int]{Bits: bits, Encode: func(v int) uint64 { return uint64(v) }}
}

// HashEncoder encodes arbitrary values through their fmt representation
// and 64-bit FNV-1a. It is injective only with overwhelming probability
// (collision probability about 2^-64 per pair), which is a documented
// simulation-grade substitution for enumerating the value universe.
//
// A string's %v representation is its own bytes, so strings are hashed
// directly: the same code without fmt's allocations. Every other type,
// named string types included (they may have a String method), goes
// through fmt.
func HashEncoder[V comparable]() Encoder[V] {
	return Encoder[V]{
		Bits: 64,
		Encode: func(v V) uint64 {
			if s, ok := any(v).(string); ok {
				return fnv1a64(s)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%v", v)
			return h.Sum64()
		},
	}
}

// fnv1a64 is 64-bit FNV-1a over the bytes of s, matching hash/fnv's
// New64a.
func fnv1a64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// DigitCD decomposes values into binary digits and runs one two-flag
// detector per digit: two different values differ in at least one digit,
// and that digit's detector catches them. Cost is 2*Bits steps, i.e.
// O(log m) for an m-value universe — the classical bound this repository
// substitutes for the Aspnes–Ellen O(log m / log log m) object (see
// DESIGN.md).
//
// The digits' flags live in one flat register slice, and Check issues
// exactly the operations one FlagsCD(2) per digit would, in the same
// order: per digit, write the own bit's flag, then read the other bit's.
type DigitCD[V comparable] struct {
	enc Encoder[V]
	// flags[2*i+b] is digit i's flag for bit value b.
	flags []memory.Register[struct{}]
}

var _ ConflictDetector[string] = (*DigitCD[string])(nil)

// NewDigitCD returns a digit-decomposed conflict detector for the encoded
// domain.
func NewDigitCD[V comparable](enc Encoder[V]) *DigitCD[V] {
	if enc.Bits < 1 || enc.Bits > 64 {
		panic("adoptcommit: encoder bits out of range [1, 64]")
	}
	return &DigitCD[V]{enc: enc, flags: make([]memory.Register[struct{}], 2*enc.Bits)}
}

// Check implements ConflictDetector.
func (d *DigitCD[V]) Check(ctx memory.Context, v V) bool {
	code := d.enc.Encode(v)
	if d.enc.Bits < 64 && code >= 1<<uint(d.enc.Bits) {
		panic("adoptcommit: encoded value exceeds encoder width")
	}
	ok := true
	for i := 0; i < len(d.flags); i += 2 {
		bit := int(code & 1)
		code >>= 1
		d.flags[i+bit].Write(ctx, struct{}{})
		if _, set := d.flags[i+1-bit].Read(ctx); set {
			ok = false
		}
	}
	return ok
}

// StepBound implements ConflictDetector.
func (d *DigitCD[V]) StepBound() int { return 2 * d.enc.Bits }

// Reset clears every digit's flags so the detector can serve a fresh set
// of processes. No Check may be in flight (see memory.Register.Reset).
func (d *DigitCD[V]) Reset() {
	for i := range d.flags {
		d.flags[i].Reset()
	}
}
