// Package memory implements the paper's shared-memory model: linearizable
// atomic multi-writer multi-reader registers, unit-cost snapshot objects,
// max registers (the footnote-1 alternative for Algorithm 1), and — to show
// the snapshot substrate is constructible rather than an oracle — a
// wait-free snapshot built from single-writer registers in the style of
// Afek et al.
//
// Every operation on a shared object charges exactly one step to the
// calling process through the Context interface, matching the paper's cost
// model in which both register operations and snapshot update/scan
// operations cost one step (Section 1.1). That step, kept by the caller's
// Context, and the per-class metrics counters (free until a registry is
// installed) are the only accounting an operation does: objects keep no
// operation count of their own. Objects are internally
// linearizable under every execution mode, via one of two
// representations latched per object on first use (see repMode): plain
// field access under Exclusive contexts (the controlled engine and the
// DES server), or hardware atomics — atomic.Pointer stores and CAS
// loops, and atomic ORs on packed flag words — under every other
// context.
package memory

import (
	"sync/atomic"

	"github.com/oblivious-consensus/conciliator/internal/metrics"
)

// Context is the hook through which shared-memory operations charge steps
// to the calling process and yield to the adversary scheduler. The
// simulator's process handle implements it; code running outside a
// simulation can pass Free.
type Context interface {
	// Step blocks until the adversary schedules the caller's next
	// operation (controlled mode) and charges one step. In concurrent
	// mode it only charges the step.
	Step()

	// Exclusive reports whether the caller is guaranteed to be the only
	// process touching shared objects while its operation runs, letting
	// objects use plain fields. The controlled simulator returns true
	// (its coroutine engine runs exactly one process at a time by
	// construction, and every handoff is a synchronization point);
	// concurrent mode and Free return false, keeping the objects
	// linearizable under real overlap.
	Exclusive() bool
}

// Scratcher is an optional Context capability exposing a per-process
// scratch arena: reusable buffers keyed by shared object, so hot-path
// operations like Snapshot.ScanScratch allocate only on first use per
// (process, object) pair. The simulator's process handle implements it.
type Scratcher interface {
	ScratchMap() map[any]any
}

// Free is a Context that never blocks and charges nothing. It is intended
// for unit tests and non-simulated use of the memory objects.
var Free Context = freeContext{}

type freeContext struct{}

func (freeContext) Step()           {}
func (freeContext) Exclusive() bool { return false }

// FreeExclusive is Free plus the exclusive capability: for benchmarks and
// sequential tests that own their objects outright and want the direct
// representation without a simulator.
var FreeExclusive Context = freeExclusiveContext{}

type freeExclusiveContext struct{ freeContext }

func (freeExclusiveContext) Exclusive() bool { return true }

// Object representations. Every shared object carries a repMode that
// latches, on the object's first operation, which of its two state
// representations holds the truth:
//
//   - repDirect: the plain struct fields, read and written directly.
//     Chosen when the first operation's context is Exclusive: the
//     controlled engine and the DES server.
//   - repLockFree: an atomic.Pointer cell updated by plain stores or CAS
//     loops (Flags: words updated by atomic OR). Chosen under every
//     other context: concurrent runs and Free.
//
// The latch is sticky: once decided, every operation from every context
// follows it, so two representations can never disagree about an
// object's state. It costs one atomic load per operation on the hot
// path (the CAS happens only on the very first operation).
//
// Following the latch puts one obligation on callers. A non-exclusive
// operation on a direct-latched object does plain field accesses, so it
// is legal only when it is ordered after the exclusive run that owns the
// object — for example a check on the test goroutine after RunControlled
// returns. Every caller in this repository obeys this, and the race
// detector enforces it in tests. A lock-free-latched object has no such
// condition: any context may use it at any time.
type repMode struct {
	m atomic.Int32
}

const (
	repUndecided int32 = iota
	repDirect
	repLockFree
)

// of returns the object's latched representation, deciding it from
// ctx.Exclusive() on the first call. It is small enough to inline, so an
// operation on a latched object pays one atomic load and no call; the
// CI inlining guard keeps it that way.
func (r *repMode) of(ctx Context) int32 {
	if m := r.m.Load(); m != repUndecided {
		return m
	}
	return r.latch(ctx)
}

// latch decides an undecided representation. Concurrent first
// operations racing to latch agree on the outcome of the CAS. Kept out
// of line so of stays under the inliner's budget.
//
//go:noinline
func (r *repMode) latch(ctx Context) int32 {
	want := repLockFree
	if ctx.Exclusive() {
		want = repDirect
	}
	if r.m.CompareAndSwap(repUndecided, want) {
		return want
	}
	return r.m.Load()
}

// Per-object-class operation counters, aggregated across every instance.
// All nil (free no-ops) until a metrics registry is installed; see the
// metrics package for the enable protocol and ordering requirements.
// "casretry" counts CAS attempts that lost the race to a concurrent
// operation and had to retry (or, for CompareEmptyAndWrite, observe the
// winner) — real operation overlap, which the direct representation
// cannot see.
//
// Every operation on every object follows one pinned order, in both
// representations (direct and lock-free):
//
//  1. ctx.Step() — the step is charged (and, in controlled mode, the
//     adversary schedules the operation) before anything is observable.
//  2. The memory effect: the direct field access or the atomic store/CAS
//     loop.
//  3. The fault hook (FaultOnWrite / stale-read substitution), after the
//     effect: the injector records the post-state an overlapping
//     observer could legitimately see. Faults apply only to the direct
//     representation: a faulted run is always controlled, so its objects
//     latch direct, and the lock-free branches have no fault hook.
//  4. Accounting: the per-class counter, last, so counter deltas always
//     describe completed effects. Counters are monotone diagnostics, not
//     linearization witnesses — in concurrent mode an operation's effect
//     and its counter increment are not one atomic unit, and no reader
//     may assume they are.
//
// TestRepresentationEquivalence pins the accounting half of this
// contract in both representations.
var (
	mRegRead, mRegWrite        *metrics.Counter
	mSnapUpdate, mSnapScan     *metrics.Counter
	mMaxWrite, mMaxRead        *metrics.Counter
	mTreeWrite, mTreeRead      *metrics.Counter
	mAfekUpdate, mAfekScan     *metrics.Counter
	mRegCAS, mMaxCAS, mSnapCAS *metrics.Counter
)

func init() {
	metrics.OnEnable(func(r *metrics.Registry) {
		mRegRead = r.Counter("memory.register.read")
		mRegWrite = r.Counter("memory.register.write")
		mRegCAS = r.Counter("memory.register.casretry")
		mSnapUpdate = r.Counter("memory.snapshot.update")
		mSnapScan = r.Counter("memory.snapshot.scan")
		mSnapCAS = r.Counter("memory.snapshot.casretry")
		mMaxWrite = r.Counter("memory.maxreg.write")
		mMaxRead = r.Counter("memory.maxreg.read")
		mMaxCAS = r.Counter("memory.maxreg.casretry")
		mTreeWrite = r.Counter("memory.treemax.write")
		mTreeRead = r.Counter("memory.treemax.read")
		mAfekUpdate = r.Counter("memory.afek.update")
		mAfekScan = r.Counter("memory.afek.scan")
	})
}
