// Package xrand provides a small, deterministic, splittable pseudo-random
// number generator used throughout the simulator.
//
// The protocols in this repository require two properties that math/rand
// does not make convenient:
//
//   - Reproducibility across runs given a single 64-bit seed, so that every
//     experiment is replayable from (algorithm seed, adversary seed).
//   - Cheap forking of independent streams, so that each process, each
//     persona, and the adversary draw from provably disjoint randomness.
//     Independence of the adversary stream from the algorithm streams is
//     what makes the simulated adversary oblivious.
//
// The generator is xoshiro256** seeded through SplitMix64, the standard
// pairing recommended by the xoshiro authors. It is not cryptographically
// secure and does not need to be.
package xrand

import "math/bits"

// DefaultSeed is the master seed the harnesses use when none is given:
// 20120716, the PODC'12 session date, so that reports are reproducible.
const DefaultSeed = 20120716

// Rand is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; fork independent streams with Fork instead of
// sharing one Rand across goroutines.
type Rand struct {
	s [4]uint64
}

// New returns a generator deterministically seeded from seed.
func New(seed uint64) *Rand {
	var r Rand
	r.Reseed(seed)
	return &r
}

// Reseed reinitializes r in place exactly as New(seed) would, without
// allocating. It exists so pooled simulator state can reuse Rand values
// across runs.
func (r *Rand) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitMix64(sm)
	}
	// xoshiro256** requires a nonzero state; SplitMix64 outputs are zero
	// for at most one input each, so force a safe state if all four
	// outputs collide with zero.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Fork returns a new generator whose stream is independent of the
// receiver's future output. The child is seeded from the parent's stream,
// so forking is itself deterministic.
func (r *Rand) Fork() *Rand {
	return New(r.Uint64())
}

// ForkNamed returns a child stream decorrelated by a caller-supplied label
// in addition to the parent's stream. Useful when the same parent must
// yield reproducible children regardless of draw order elsewhere.
func (r *Rand) ForkNamed(label uint64) *Rand {
	return New(r.SeedNamed(label))
}

// ForkNamedInto seeds into with the same stream ForkNamed(label) would
// return, reusing into's storage instead of allocating.
func (r *Rand) ForkNamedInto(label uint64, into *Rand) {
	into.Reseed(r.SeedNamed(label))
}

// SeedNamed draws the seed ForkNamed(label) would use without building
// the child. Callers that must later re-derive related streams (e.g.
// per-incarnation reseeds keyed off one process's base seed) store this
// value; New(SeedNamed(label)) is exactly ForkNamed(label).
func (r *Rand) SeedNamed(label uint64) uint64 {
	return r.Uint64() ^ mix(label)
}

// Uint64 returns the next 64 uniformly distributed bits.
//
// The state is loaded into locals and stored back as one array, which
// keeps the function under the compiler's inlining budget: every draw
// in the simulator (schedule slots, persona coins, latency samples) is
// then straight-line code in its caller. CI checks that it stays
// inlinable.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9

	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	r.s = [4]uint64{s0, s1, s2 ^ t, bits.RotateLeft64(s3, 45)}

	return result
}

// Uint64n returns a uniform value in [0, n). n must be positive.
func (r *Rand) Uint64n(n uint64) uint64 {
	// Lemire's multiply-shift rejection method: unbiased and branch-light.
	// The first draw is accepted unless lo < n, which happens with
	// probability n/2^64; that case, and n == 0 (where lo < n never
	// holds), leave the inlined fast path.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n || n == 0 {
		return r.uint64nSlow(n, hi, lo)
	}
	return hi
}

// uint64nSlow is Uint64n's rejection loop for a first draw (hi, lo) with
// lo < n, and its n == 0 panic.
func (r *Rand) uint64nSlow(n, hi, lo uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(r.Uint64(), n)
	}
	return hi
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns an unbiased random bit.
func (r *Rand) Bool() bool {
	return r.Uint64()&1 == 1
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n) via Fisher-Yates.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using swap, as rand.Shuffle does.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bits returns k independent random bits packed little-endian into a
// []uint64 of length ceil(k/64).
func (r *Rand) Bits(k int) []uint64 {
	if k <= 0 {
		return nil
	}
	words := make([]uint64, (k+63)/64)
	for i := range words {
		words[i] = r.Uint64()
	}
	// Mask the tail so equality on the slice equals equality on the bits.
	if rem := k % 64; rem != 0 {
		words[len(words)-1] &= (1 << rem) - 1
	}
	return words
}

// splitMix64 advances a SplitMix64 state and returns (newState, output).
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	return state, mix(state)
}

// mix is the SplitMix64 output function, also used to decorrelate labels.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
