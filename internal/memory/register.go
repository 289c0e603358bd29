package memory

import "sync/atomic"

// Register is a linearizable atomic multi-writer multi-reader register
// holding a value of type T. The zero-value register is empty; Read
// distinguishes "never written" from any written value, which stands in
// for the paper's registers initialized to the null value.
//
// The paper places no bound on register width, and neither do we: T may be
// a persona carrying an entire priority vector.
//
// Lock-free representation: lf holds a pointer to an immutable value, nil
// meaning "never written". A Write publishes a fresh *T with one atomic
// store and a Read is one atomic load — both wait-free, and linearizable
// because the Go memory model makes an atomic store/load pair a
// release/acquire edge (the pointed-to value is published before the
// pointer, and the pointee is never mutated after publication).
type Register[T any] struct {
	rep repMode
	lf  atomic.Pointer[T]
	val T
	set bool
}

// NewRegister returns an empty register.
func NewRegister[T any]() *Register[T] {
	return &Register[T]{}
}

// Write atomically stores v, charging one step.
func (r *Register[T]) Write(ctx Context, v T) {
	ctx.Step()
	if r.rep.of(ctx) == repLockFree {
		r.lfStore(v)
	} else {
		r.val, r.set = v, true
		if f := asFaulter(ctx); f != nil {
			f.FaultOnWrite(r, v)
		}
	}
	mRegWrite.Inc()
}

// Read atomically returns the current value and whether the register has
// ever been written, charging one step.
func (r *Register[T]) Read(ctx Context) (T, bool) {
	ctx.Step()
	var (
		v  T
		ok bool
	)
	if r.rep.of(ctx) == repLockFree {
		if p := r.lf.Load(); p != nil {
			v, ok = *p, true
		}
	} else {
		v, ok = r.val, r.set
		if f := asFaulter(ctx); f != nil {
			if stale, hit := f.FaultOnRead(r); hit {
				// A nil stale value reads as never written.
				v, ok = stale.(T)
			}
		}
	}
	mRegRead.Inc()
	return v, ok
}

// CompareEmptyAndWrite writes v only if the register has never been
// written, returning whether the write happened and the resulting value.
// This is NOT a primitive of the paper's model and is consequently not
// used by any protocol; it exists for test harnesses that need a cheap
// linearization witness.
func (r *Register[T]) CompareEmptyAndWrite(ctx Context, v T) (T, bool) {
	ctx.Step()
	var (
		val       T
		installed bool
	)
	if r.rep.of(ctx) == repLockFree {
		val, installed = r.lfInstallEmpty(v)
	} else if val = r.val; !r.set {
		r.val, r.set = v, true
		val, installed = v, true
		if f := asFaulter(ctx); f != nil {
			f.FaultOnWrite(r, v)
		}
	}
	if installed {
		mRegWrite.Inc()
	} else {
		// Nothing was installed: the operation only observed state, so it
		// counts as a read.
		mRegRead.Inc()
	}
	return val, installed
}

// lfStore publishes v on the lock-free cell. Kept out of line so the
// heap allocation for v's box is confined to the lock-free path: inlined
// into Write, escape analysis would heap-allocate every caller's v, and
// the direct path's zero-alloc guarantee would silently die.
//
//go:noinline
func (r *Register[T]) lfStore(v T) {
	r.lf.Store(&v)
}

// lfInstallEmpty is CompareEmptyAndWrite's lock-free arm: one CAS
// against the empty cell. Out of line for the same escape reason as
// lfStore.
//
//go:noinline
func (r *Register[T]) lfInstallEmpty(v T) (T, bool) {
	if r.lf.CompareAndSwap(nil, &v) {
		return v, true
	}
	// Lost the empty→v race (or the register was already set): observe
	// whoever won. The load is a legal linearization of the failed
	// install because any non-nil value justifies it.
	mRegCAS.Inc()
	return *r.lf.Load(), false
}

// Reset returns the register to its never-written state: both
// representations are cleared. The
// representation latch is kept — whichever representation it names now
// reads as empty, and every operation still follows it — which spares
// the reused register the latching CAS on its first operation. Reset is
// bookkeeping for object reuse, not an operation of the modeled memory,
// so it charges no step. It uses plain stores: the caller must ensure no
// operation is in flight and that later operations are ordered after
// Reset (for example by a mutex handoff).
func (r *Register[T]) Reset() {
	var zero T
	r.lf = atomic.Pointer[T]{}
	r.val, r.set = zero, false
}

// RegisterArray is a convenience bundle of k independent registers, used
// for per-round register sequences (Algorithm 2's r_i) and flag arrays in
// conflict detectors.
type RegisterArray[T any] struct {
	regs []*Register[T]
}

// NewRegisterArray returns k empty registers.
func NewRegisterArray[T any](k int) *RegisterArray[T] {
	a := &RegisterArray[T]{regs: make([]*Register[T], k)}
	for i := range a.regs {
		a.regs[i] = NewRegister[T]()
	}
	return a
}

// At returns the i-th register.
func (a *RegisterArray[T]) At(i int) *Register[T] { return a.regs[i] }

// Len returns the number of registers.
func (a *RegisterArray[T]) Len() int { return len(a.regs) }

// Reset resets every register in the array; see Register.Reset for the
// caller's obligations.
func (a *RegisterArray[T]) Reset() {
	for _, r := range a.regs {
		r.Reset()
	}
}
