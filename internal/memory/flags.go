package memory

import "sync/atomic"

// Flags is k one-bit registers packed into uint64 words: flag i is bit
// i%64 of word i/64. Each flag is an atomic register whose only written
// value is "set", which is all a conflict detector's flag arrays need;
// packing them spares the per-flag pointer cell and write-barriered
// pointer store that k separate Register[struct{}] would pay.
//
// The flags share one representation latch (see repMode) and one word
// array in both representations:
//
//   - Lock-free: Write is one atomic OR, a locked read-modify-write and
//     so a full fence, and Read is one atomic load. The fence keeps the
//     write-own-flag / read-other-flag (store-buffering) order that a
//     conflict detector's correctness rests on.
//   - Direct: plain bit operations. Fault hooks key flag i as
//     ComponentKey{Obj: f, I: i}; a stale read answers "unset" for a nil
//     substitute and "set" for a recorded write, exactly as a
//     Register[struct{}] would.
//
// Each operation is one register operation of the model: it charges one
// step and counts under memory.register.write or memory.register.read.
type Flags struct {
	rep   repMode
	k     int
	words []uint64
	// inline backs words for up to 128 flags (a 64-bit digit conflict
	// detector), so such a set is one allocation.
	inline [2]uint64
}

// NewFlags returns k unset flags.
func NewFlags(k int) *Flags {
	if k < 0 {
		panic("memory: negative flag count")
	}
	f := &Flags{k: k}
	if n := (k + 63) / 64; n <= len(f.inline) {
		f.words = f.inline[:n]
	} else {
		f.words = make([]uint64, n)
	}
	return f
}

// Len returns the number of flags k.
func (f *Flags) Len() int { return f.k }

// Write sets flag i, charging one step.
func (f *Flags) Write(ctx Context, i int) {
	ctx.Step()
	w, bit := f.locate(i)
	if f.rep.of(ctx) == repLockFree {
		atomic.OrUint64(w, bit)
	} else {
		*w |= bit
		if fl := asFaulter(ctx); fl != nil {
			fl.FaultOnWrite(ComponentKey{Obj: f, I: i}, struct{}{})
		}
	}
	mRegWrite.Inc()
}

// Read reports whether flag i has been set, charging one step.
func (f *Flags) Read(ctx Context, i int) bool {
	ctx.Step()
	w, bit := f.locate(i)
	var set bool
	if f.rep.of(ctx) == repLockFree {
		set = atomic.LoadUint64(w)&bit != 0
	} else {
		set = *w&bit != 0
		if fl := asFaulter(ctx); fl != nil {
			if stale, hit := fl.FaultOnRead(ComponentKey{Obj: f, I: i}); hit {
				// A nil stale value reads as never written.
				set = stale != nil
			}
		}
	}
	mRegRead.Inc()
	return set
}

// locate returns flag i's word and bit mask, panicking when i is out of
// range.
func (f *Flags) locate(i int) (*uint64, uint64) {
	if uint(i) >= uint(f.k) {
		panic("memory: flag index out of range")
	}
	return &f.words[i>>6], 1 << (uint(i) & 63)
}

// Reset clears every flag. The representation latch is kept, as in
// Register.Reset, and the caller has the same obligations: no operation
// in flight, and later operations ordered after Reset. It charges no
// step.
func (f *Flags) Reset() {
	clear(f.words)
}
