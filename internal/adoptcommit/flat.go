package adoptcommit

import "github.com/oblivious-consensus/conciliator/internal/sim"

// This file compiles the two adopt-commit objects used by the flat
// consensus machine (internal/consensus) to dense step-function cores:
// each process's progress through one Propose is an explicit cursor
// advanced one shared-memory operation at a time. The contract is
// observable equivalence with RegisterAC/SnapshotAC — same operation
// count, same visibility, same decision rule under every interleaving —
// which the cross-engine identity tests and FuzzFlatVsCoroutine pin.
//
// FlatBinaryAC is cursor logic only, driven as NextOp and Deliver (see
// sim.FlatMachine): its registers live in the caller's sim.FlatMemory —
// the flat consensus machine's own, or the discrete-event simulator's
// memory server. FlatSnapshotAC keeps its two snapshots in flat slices
// and a fused Step; no caller needs its ops.

// FlatACCursor is one process's progress through one flat adopt-commit
// Propose. The zero value is the start state; reuse by assigning the
// zero value.
type FlatACCursor struct {
	// PC is the index of the next operation.
	PC int8
	// OK records the conflict-detector verdict (FlatBinaryAC) or the
	// phase-1 clean verdict (FlatSnapshotAC).
	OK bool
	// Conflicted records the dirty-register read on the commit path
	// (FlatBinaryAC only).
	Conflicted bool
}

// FlatBinaryAC is the dense image of NewBinaryAC: a RegisterAC over the
// one-digit binary conflict detector (one FlagsCD(2)), restricted to
// values {0, 1}. Its four value registers are the two CD flags (presence
// is the flag bit), clean and dirty; it holds no state of its own.
// Propose costs 4 operations on the conflict path and 5 on the commit
// path, exactly like the original:
//
//	op 0: write own CD flag        op 2': dirty.Write   (conflict path)
//	op 1: read the other CD flag   op 3': clean.Read → adopt
//	op 2: clean.Write(v)           (clean path)
//	op 3: dirty.Read
//	op 4: clean.Read → commit iff undisturbed
type FlatBinaryAC struct{}

// Register indices of FlatBinaryAC, the FlatOp.Obj of its operations.
const (
	acFlag0 = 0 // the CD flag of value v is register acFlag0+v
	acClean = 2
	acDirty = 3
	// FlatACRegs is the number of registers one FlatBinaryAC uses.
	FlatACRegs = 4
)

// NextOp returns cur's next operation of Propose(v) for a value in
// {0, 1}.
func (FlatBinaryAC) NextOp(cur *FlatACCursor, v int64) sim.FlatOp {
	switch cur.PC {
	case 0: // conflict detector: write own flag
		return sim.FlatOp{Kind: sim.OpWriteV, Obj: acFlag0 + int32(v), Arg: 1}
	case 1: // conflict detector: read the other flag
		return sim.FlatOp{Kind: sim.OpReadV, Obj: acFlag0 + 1 - int32(v)}
	case 2:
		if cur.OK {
			return sim.FlatOp{Kind: sim.OpWriteV, Obj: acClean, Arg: int32(v)}
		}
		return sim.FlatOp{Kind: sim.OpWriteV, Obj: acDirty, Arg: 1}
	}
	if cur.PC == 3 && cur.OK {
		return sim.FlatOp{Kind: sim.OpReadV, Obj: acDirty}
	}
	return sim.FlatOp{Kind: sim.OpReadV, Obj: acClean} // op 3' and op 4
}

// Deliver advances cur by the result of its current operation. It
// returns done=true when the Propose completed, with commit and out
// carrying the decision; before that, commit and out are meaningless.
func (FlatBinaryAC) Deliver(cur *FlatACCursor, v int64, r sim.FlatResult) (done, commit bool, out int64) {
	switch cur.PC {
	case 1: // no conflict iff the other flag is unset
		cur.OK = !r.OK
	case 3:
		if cur.OK {
			cur.Conflicted = r.OK
			break
		}
		// Conflict path: adopt what clean holds, or keep v if it is
		// still empty.
		if r.OK {
			return true, false, int64(r.Val)
		}
		return true, false, v
	case 4:
		// Commit path: re-read clean. The own write guarantees presence
		// in atomic memory; a wiped register reads as 0.
		w := int64(r.Val)
		if cur.Conflicted || w != v {
			return true, false, w
		}
		return true, true, v
	}
	cur.PC++
	return false, false, 0
}

// FlatSnapshotAC is the dense image of SnapshotAC: two n-component
// unit-cost snapshots held as flat slices. Propose costs exactly 4
// operations (update, scan, update, scan), like the original.
type FlatSnapshotAC struct {
	n       int
	p1val   []int64
	p1ok    []bool
	p2val   []int64
	p2clean []bool
	p2ok    []bool
}

// NewFlatSnapshotAC returns an empty flat snapshot adopt-commit object
// for n processes.
func NewFlatSnapshotAC(n int) *FlatSnapshotAC {
	return &FlatSnapshotAC{
		n:       n,
		p1val:   make([]int64, n),
		p1ok:    make([]bool, n),
		p2val:   make([]int64, n),
		p2clean: make([]bool, n),
		p2ok:    make([]bool, n),
	}
}

// Reset empties the object for reuse.
func (a *FlatSnapshotAC) Reset() {
	for i := 0; i < a.n; i++ {
		a.p1ok[i] = false
		a.p2ok[i] = false
	}
}

// Step executes cur's next operation of Propose(v) by process pid. The
// scan loops mirror SnapshotAC.Propose exactly, including the
// last-clean-entry-wins rule of the phase-2 scan.
func (a *FlatSnapshotAC) Step(cur *FlatACCursor, pid int, v int64) (done, commit bool, out int64) {
	switch cur.PC {
	case 0: // phase-1 update
		a.p1val[pid], a.p1ok[pid] = v, true
	case 1: // phase-1 scan: clean iff only own value visible
		cur.OK = true
		for i := 0; i < a.n; i++ {
			if a.p1ok[i] && a.p1val[i] != v {
				cur.OK = false
				break
			}
		}
	case 2: // phase-2 update of (v, clean)
		a.p2val[pid], a.p2clean[pid], a.p2ok[pid] = v, cur.OK, true
	case 3: // phase-2 scan and decision
		var (
			sawClean   bool
			cleanValue int64
			allCleanV  = true
		)
		for i := 0; i < a.n; i++ {
			if !a.p2ok[i] {
				continue
			}
			if a.p2clean[i] {
				sawClean = true
				cleanValue = a.p2val[i]
			}
			if !a.p2clean[i] || a.p2val[i] != v {
				allCleanV = false
			}
		}
		if cur.OK && allCleanV {
			return true, true, v
		}
		if sawClean {
			return true, false, cleanValue
		}
		return true, false, v
	}
	cur.PC++
	return false, false, 0
}
