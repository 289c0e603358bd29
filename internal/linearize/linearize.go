// Package linearize implements a Wing–Gong-style linearizability checker
// for the shared-object histories this repository's protocols run on.
// The memory objects are linearizable by construction (each operation is
// a critical section), but the paper's correctness arguments lean on
// atomicity so heavily — total ordering of scans, unique clean values,
// monotone max registers — that we validate it empirically: record a
// concurrent history, then search for a witness linearization.
//
// An operation is recorded as an interval [Start, End] of logical
// timestamps taken outside the operation; the true linearization point
// lies inside the interval. The checker does a memoized DFS over
// candidate next-operations: an operation may be linearized next only if
// no other pending operation finished before it started (real-time
// order), and its response must match the object's sequential semantics.
//
// Complexity is exponential in the worst case; intended for histories of
// up to a few dozen operations, which is what the tests record.
package linearize

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// OpKind distinguishes reads and writes.
type OpKind int

const (
	// Read returns the object's value.
	Read OpKind = iota + 1
	// Write installs a value.
	Write
)

// Op is one recorded operation.
type Op struct {
	// Proc is the process that issued the operation (informational).
	Proc int
	// Kind is Read or Write.
	Kind OpKind
	// Arg is the written value (Write) or unused (Read).
	Arg int64
	// Out is the returned value (Read) or unused (Write).
	Out int64
	// OutOK reports whether the read found a value (false = null).
	OutOK bool
	// Start and End are logical timestamps bracketing the operation.
	Start, End int64
}

// Semantics defines a sequential object for the checker.
type Semantics interface {
	// Init returns the initial state.
	Init() int64
	// Apply returns the state after a write of arg.
	Apply(state int64, arg int64) int64
	// ReadValue returns what a read must observe in state.
	ReadValue(state int64) int64
}

// RegisterSemantics is last-write-wins.
type RegisterSemantics struct{}

// Init implements Semantics.
func (RegisterSemantics) Init() int64 { return 0 }

// Apply implements Semantics.
func (RegisterSemantics) Apply(_ int64, arg int64) int64 { return arg }

// ReadValue implements Semantics.
func (RegisterSemantics) ReadValue(state int64) int64 { return state }

// MaxRegisterSemantics keeps the maximum written value.
type MaxRegisterSemantics struct{}

// Init implements Semantics.
func (MaxRegisterSemantics) Init() int64 { return 0 }

// Apply implements Semantics.
func (MaxRegisterSemantics) Apply(state, arg int64) int64 {
	if arg > state {
		return arg
	}
	return state
}

// ReadValue implements Semantics.
func (MaxRegisterSemantics) ReadValue(state int64) int64 { return state }

// SnapshotSemantics models an n-component atomic snapshot by packing the
// whole component vector into the checker's int64 state word: component
// i occupies the 8 bits at shift 8i, holding value+1 for a set component
// and 0 for an unset one. That limits checkable histories to at most 7
// components with values in [0, 254] — comfortably above what a
// sub-64-op history can use. An Update(i, v) is recorded as a Write of
// EncodeSnapshotUpdate(i, v); a Scan is recorded as a Read returning
// EncodeSnapshotView of the observed entries, with OutOK reporting
// whether any component was set (the checker requires reads linearized
// before the first write to return OutOK=false, which for a snapshot is
// exactly the all-unset view).
type SnapshotSemantics struct {
	// Components is the snapshot width n (at most 7).
	Components int
}

const (
	snapCompBits = 8
	snapCompMask = int64(1)<<snapCompBits - 1
)

// EncodeSnapshotUpdate packs an Update(component, value) argument.
// component must be in [0, 7) and value in [0, 254].
func EncodeSnapshotUpdate(component int, value int64) int64 {
	if component < 0 || component >= 7 {
		panic(fmt.Sprintf("linearize: snapshot component %d out of range", component))
	}
	if value < 0 || value >= snapCompMask {
		panic(fmt.Sprintf("linearize: snapshot value %d out of range", value))
	}
	return int64(component)<<snapCompBits | value
}

// EncodeSnapshotView packs an observed component vector: values[i] is
// component i's value and ok[i] whether it was set.
func EncodeSnapshotView(values []int64, ok []bool) int64 {
	var state int64
	for i, v := range values {
		if !ok[i] {
			continue
		}
		if v < 0 || v >= snapCompMask {
			panic(fmt.Sprintf("linearize: snapshot value %d out of range", v))
		}
		state |= (v + 1) << (uint(i) * snapCompBits)
	}
	return state
}

// Init implements Semantics.
func (SnapshotSemantics) Init() int64 { return 0 }

// Apply implements Semantics.
func (s SnapshotSemantics) Apply(state, arg int64) int64 {
	i := arg >> snapCompBits
	v := arg & snapCompMask
	shift := uint(i) * snapCompBits
	return state&^(snapCompMask<<shift) | (v+1)<<shift
}

// ReadValue implements Semantics.
func (SnapshotSemantics) ReadValue(state int64) int64 { return state }

// Check reports whether the history has a linearization under the given
// sequential semantics. Histories longer than 64 operations are
// rejected (the memoization key is a bitmask).
func Check(sem Semantics, history []Op) (bool, error) {
	n := len(history)
	if n == 0 {
		return true, nil
	}
	if n > 64 {
		return false, fmt.Errorf("linearize: history of %d ops exceeds the 64-op limit", n)
	}
	ops := make([]Op, n)
	copy(ops, history)
	// Sorting by start time keeps candidate scans cheap and the memo
	// stable; it does not affect correctness.
	sort.Slice(ops, func(a, b int) bool { return ops[a].Start < ops[b].Start })

	type memoKey struct {
		done    uint64
		state   int64
		written bool
	}
	memo := make(map[memoKey]bool)

	var dfs func(done uint64, state int64, written bool) bool
	dfs = func(done uint64, state int64, written bool) bool {
		if done == (uint64(1)<<n)-1 {
			return true
		}
		key := memoKey{done: done, state: state, written: written}
		if v, ok := memo[key]; ok {
			return v
		}
		// minEnd over pending ops: a pending op may be linearized next
		// only if no other pending op ended before it started.
		var minEnd int64 = 1<<63 - 1
		for i := 0; i < n; i++ {
			if done&(1<<i) == 0 && ops[i].End < minEnd {
				minEnd = ops[i].End
			}
		}
		ok := false
		for i := 0; i < n && !ok; i++ {
			if done&(1<<i) != 0 {
				continue
			}
			op := ops[i]
			if op.Start > minEnd {
				continue // some pending op precedes it in real time
			}
			switch op.Kind {
			case Write:
				ok = dfs(done|(1<<i), sem.Apply(state, op.Arg), true)
			case Read:
				if written {
					if op.OutOK && op.Out == sem.ReadValue(state) {
						ok = dfs(done|(1<<i), state, written)
					}
				} else if !op.OutOK {
					ok = dfs(done|(1<<i), state, written)
				}
			}
		}
		memo[key] = ok
		return ok
	}
	return dfs(0, sem.Init(), false), nil
}

// Recorder assigns logical timestamps and accumulates a history; safe
// for concurrent use.
type Recorder struct {
	clock atomic.Int64
	mu    sync.Mutex
	ops   []Op
}

// Len reports the number of recorded operations.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

// append records op; callers hold no locks.
func (r *Recorder) append(op Op) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

// Begin returns a start timestamp; call it immediately before invoking
// the operation on the object under test.
func (r *Recorder) Begin() int64 { return r.clock.Add(1) }

// EndWrite records a completed write that started at start.
func (r *Recorder) EndWrite(proc int, arg int64, start int64) {
	end := r.clock.Add(1)
	r.append(Op{Proc: proc, Kind: Write, Arg: arg, Start: start, End: end})
}

// EndRead records a completed read that started at start.
func (r *Recorder) EndRead(proc int, out int64, outOK bool, start int64) {
	end := r.clock.Add(1)
	r.append(Op{Proc: proc, Kind: Read, Out: out, OutOK: outOK, Start: start, End: end})
}

// History returns a copy of the recorded operations.
func (r *Recorder) History() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Op, len(r.ops))
	copy(out, r.ops)
	return out
}
