package adoptcommit

import "github.com/oblivious-consensus/conciliator/internal/memory"

// RegisterAC is an adopt-commit object in the plain multi-writer register
// model, built from a conflict detector plus two registers following the
// Aspnes–Ellen modular decomposition (adopt-commit = conflict detector +
// O(1) registers):
//
//	Propose(v):
//	  if CD.Check(v) fails:            // conflict observed
//	      dirty.Write(true)            // announce before looking
//	      if clean register holds w: return (adopt, w)
//	      return (adopt, v)
//	  clean.Write(v)                   // unique: only CD-ok values land here
//	  if dirty set or clean != v: return (adopt, clean)
//	  return (commit, v)
//
// Why coherence holds: the conflict-detector property makes all CD-ok
// values equal, so the clean register only ever contains one value v*. A
// committer wrote clean=v*, then read dirty clear. A conflicting process
// writes dirty before reading clean; if its clean read found nothing, that
// read — and hence its dirty write — preceded the committer's clean write,
// so the committer's later dirty read would have seen the mark and it
// could not have committed. The package tests check this exhaustively
// over all interleavings for small configurations.
type RegisterAC[V comparable] struct {
	cd    ConflictDetector[V]
	clean *memory.Register[V]
	dirty *memory.Register[struct{}]
}

var _ Object[int] = (*RegisterAC[int])(nil)

// NewRegisterAC returns a register-model adopt-commit object built on the
// given conflict detector.
func NewRegisterAC[V comparable](cd ConflictDetector[V]) *RegisterAC[V] {
	return &RegisterAC[V]{
		cd:    cd,
		clean: memory.NewRegister[V](),
		dirty: memory.NewRegister[struct{}](),
	}
}

// NewBinaryAC returns the cheapest register-model adopt-commit object for
// values {0, 1} (cost 5 register steps), used by Algorithm 3's combine
// stage.
func NewBinaryAC() *RegisterAC[int] {
	return NewRegisterAC[int](NewDigitCD(IdentityEncoder(1)))
}

// NewHashAC returns a register-model adopt-commit object for arbitrary
// comparable values via the 64-bit hash encoder.
func NewHashAC[V comparable]() *RegisterAC[V] {
	return NewRegisterAC(NewDigitCD(HashEncoder[V]()))
}

// NewFlagsAC returns a register-model adopt-commit object for values in
// [0, k) using the single-digit k-ary conflict detector: k+3 steps per
// Propose, which beats the binary-digit decomposition only for tiny k.
func NewFlagsAC(k int) *RegisterAC[int] {
	return NewRegisterAC[int](NewFlagsCD(k))
}

// Propose implements Object. pid is ignored: the object is anonymous,
// like the paper's register-model adopt-commit objects.
func (a *RegisterAC[V]) Propose(ctx memory.Context, _ int, v V) (dec Decision, out V) {
	before := proposeStart(mRegPropose, ctx)
	defer func() { meterPropose(mRegPropose, ctx, before, dec) }()
	if !a.cd.Check(ctx, v) {
		a.dirty.Write(ctx, struct{}{})
		if w, ok := a.clean.Read(ctx); ok {
			return Adopt, w
		}
		return Adopt, v
	}
	a.clean.Write(ctx, v)
	_, conflicted := a.dirty.Read(ctx)
	w, _ := a.clean.Read(ctx) // own write guarantees presence
	if conflicted || w != v {
		return Adopt, w
	}
	return Commit, v
}

// StepBound implements Object.
func (a *RegisterAC[V]) StepBound() int { return a.cd.StepBound() + 3 }

// Reset returns the object to its initial state so a fresh set of
// processes can use it, and reports whether it could: it cannot when
// its conflict detector has no Reset method. No Propose may be in flight
// (see memory.Register.Reset).
func (a *RegisterAC[V]) Reset() bool {
	cd, ok := a.cd.(interface{ Reset() })
	if !ok {
		return false
	}
	cd.Reset()
	a.clean.Reset()
	a.dirty.Reset()
	return true
}
