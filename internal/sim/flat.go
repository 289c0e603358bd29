package sim

import (
	"errors"
	"fmt"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// ErrFlatFaults reports a fault schedule handed to the flat engine, which
// does not interpret fault events (use RunControlled for faulted runs).
var ErrFlatFaults = errors.New("sim: flat engine does not support fault schedules")

// FlatMachine is a protocol compiled to a flat state machine: per-process
// state lives in dense arrays owned by the machine, and the engine
// advances it one shared-memory operation at a time without coroutines.
//
// The contract mirrors the coroutine engine's observable behavior exactly:
//
//   - Init(pid, rng) is called once per process in increasing pid order
//     before any Step. It must perform every random draw the coroutine
//     body would make before its first shared-memory operation (persona
//     creation happens here), in the same order, from the same stream.
//     Init takes no modeled steps.
//   - Step(pid, rng) executes exactly one shared-memory operation for pid
//     and returns true when pid's execution is complete (the operation
//     just executed was its last). Randomness a process draws mid-run
//     (e.g. a fresh persona at a later consensus phase) must come from
//     rng at the position in pid's own stream where the coroutine body
//     would draw it.
//   - Every process performs at least one operation. (All protocols here
//     do; the coroutine engine additionally tolerates zero-step bodies.)
//
// Machines are single-run; callers reuse them across trials through their
// own Reset mechanisms.
//
// The protocol machines split Step into two halves so that another
// driver can own the shared memory: NextOp reads pid's local state and
// returns its next operation as a FlatOp, and Deliver advances that local
// state by the operation's FlatResult. Step applies the op to the
// machine's own dense objects between the two, and contains no other
// protocol logic. The discrete-event simulator (internal/des) calls the
// same two halves with the op shipped to a memory-server node in
// between, so both engines run one protocol definition.
type FlatMachine interface {
	Init(pid int, rng *xrand.Rand)
	Step(pid int, rng *xrand.Rand) bool
}

// FlatOpKind names a shared-memory operation of a flat machine. Objects
// come in three pools, the pool implied by the kind: persona registers
// (sifter rounds), max registers (priority-max rounds) and value
// registers (adopt-commit).
type FlatOpKind uint8

const (
	OpWriteP   FlatOpKind = iota // persona register: Write(Arg)
	OpReadP                      // persona register: Read
	OpWriteMax                   // max register: WriteMax(Key, Arg)
	OpReadMax                    // max register: ReadMax
	OpWriteV                     // value register: Write(Arg)
	OpReadV                      // value register: Read
)

// FlatOp is one shared-memory operation: its kind, its object, and its
// argument. Persona values travel as persona ids. It has four fields
// because the compiler splits only structs of at most four fields into
// registers, and one is built and consumed on every flat step.
type FlatOp struct {
	Kind FlatOpKind
	// Obj is the object's index in its pool. A single-phase machine
	// numbers its rounds (conciliators) or registers (adopt-commit) from
	// 0; a multi-phase machine lays phases out one after the other.
	Obj int32
	// Arg is the persona id (OpWriteP, OpWriteMax) or the value
	// (OpWriteV) written.
	Arg int32
	// Key is the WriteMax key.
	Key uint64
}

// FlatResult is what an operation returns. A write returns the zero
// result. A read returns OK and the stored value or persona id in Val,
// plus the incumbent key for OpReadMax; reading an empty object returns
// OK false and Val 0.
type FlatResult struct {
	OK  bool
	Val int32
	Key uint64
}

// FlatRunner drives FlatMachines under schedule sources with the same
// slot-level semantics as the coroutine driver (see drive): one operation
// per charged slot, uncharged no-op slots for finished or crashed
// processes (skipped in bulk after a no-op when the source is a
// sched.Skipper), the same slot budget, and the same RNG fork layout. A
// runner is reusable across runs and, with RunInto, allocation-free in
// steady state; it is not safe for concurrent use.
//
// The type parameter only types the machine argument; it does not
// devirtualize Step. Go stencils generic code per GC shape, so every
// pointer machine shares the FlatRunner[go.shape.*uint8] instantiation
// and Step is called through its dictionary.
type FlatRunner[M FlatMachine] struct {
	done    []bool
	steps   []int64
	rngs    []xrand.Rand
	doneCnt int

	// Skip-predicate state, referenced by the pre-built closure so runs
	// do not allocate. ca is the current run's crash-aware source view.
	ca       sched.CrashAware
	batch    int
	skipPred func(pid int) bool
}

// NewFlatRunner returns a reusable runner for machines of type M.
func NewFlatRunner[M FlatMachine]() *FlatRunner[M] {
	fr := &FlatRunner[M]{}
	// Built once so the hot loop never allocates a closure. Mirrors
	// drive's skipPred.
	fr.skipPred = func(pid int) bool {
		if fr.batch >= skipBatch || !(fr.done[pid] || !fr.alive(pid)) || fr.ca != nil && fr.liveDone() {
			return false
		}
		fr.batch++
		return true
	}
	return fr
}

func (fr *FlatRunner[M]) alive(pid int) bool { return fr.ca == nil || fr.ca.Alive(pid) }

func (fr *FlatRunner[M]) liveDone() bool {
	if fr.doneCnt == len(fr.done) {
		return true
	}
	if fr.ca == nil {
		return false
	}
	for pid, done := range fr.done {
		if !done && fr.ca.Alive(pid) {
			return false
		}
	}
	return true
}

// skipBatch bounds the no-op slots one SkipWhile call may consume, so a
// skip overshoots the slot budget by at most this much before the driver
// clamps Result.Slots. Both engines share it.
const skipBatch = 1024

// Run executes one controlled run of m under src, allocating fresh
// Result slices. See RunInto for the allocation-free form.
func (fr *FlatRunner[M]) Run(src sched.Source, m M, cfg Config) (Result, error) {
	var res Result
	err := fr.RunInto(src, m, cfg, &res)
	return res, err
}

// RunInto is Run writing into a caller-owned Result, reusing its slices
// when capacity allows. In steady state (reused runner, reused Result,
// machine and source that do not allocate) a run performs no heap
// allocation.
func (fr *FlatRunner[M]) RunInto(src sched.Source, m M, cfg Config, res *Result) error {
	if cfg.Faults != nil {
		return ErrFlatFaults
	}
	n := src.N()
	maxSlots := cfg.MaxSlots
	if maxSlots <= 0 {
		maxSlots = defaultMaxSlots
	}

	if cap(fr.done) < n {
		fr.done = make([]bool, n)
		fr.steps = make([]int64, n)
		fr.rngs = make([]xrand.Rand, n)
	}
	fr.done = fr.done[:n]
	fr.steps = fr.steps[:n]
	fr.rngs = fr.rngs[:n]
	for i := 0; i < n; i++ {
		fr.done[i] = false
		fr.steps[i] = 0
	}
	fr.doneCnt = 0

	// Identical stream layout to RunControlled: one root reseed, then one
	// named fork per process in pid order (each fork consumes one draw of
	// the root stream).
	var root xrand.Rand
	root.Reseed(cfg.AlgSeed)
	for i := 0; i < n; i++ {
		root.ForkNamedInto(uint64(i), &fr.rngs[i])
	}
	// Priming: all pre-first-step randomness, in pid order, matching the
	// coroutine priming loop.
	for pid := 0; pid < n; pid++ {
		m.Init(pid, &fr.rngs[pid])
	}

	fr.ca, _ = src.(sched.CrashAware)
	skipper, _ := src.(sched.Skipper)

	metered := mStepNanos != nil
	var (
		slots  int64
		err    error
		grants int64
		t0     time.Time
	)

	for {
		if fr.liveDone() {
			break
		}
		if slots >= maxSlots {
			slots = maxSlots
			err = fmt.Errorf("%w (budget %d)", ErrSlotBudget, maxSlots)
			break
		}
		pid := src.Next()
		if pid == sched.Exhausted {
			if !fr.liveDone() {
				err = ErrScheduleExhausted
			}
			break
		}
		slots++
		if fr.done[pid] || !fr.alive(pid) {
			// Uncharged no-op slot, per the model; a source that can
			// peek hands over the no-op slots that follow in one call.
			if skipper != nil {
				fr.batch = 0
				slots = min(slots+skipper.SkipWhile(fr.skipPred), maxSlots)
			}
			continue
		}
		if metered && grants == 0 {
			t0 = time.Now()
		}
		fr.steps[pid]++
		if m.Step(pid, &fr.rngs[pid]) {
			fr.done[pid] = true
			fr.doneCnt++
		}
		if metered {
			if grants++; grants >= meterBatch {
				mWindowSize.Observe(grants)
				mStepNanos.Observe(time.Since(t0).Nanoseconds() / grants)
				grants = 0
			}
		}
	}
	if metered && grants > 0 {
		mWindowSize.Observe(grants)
		mStepNanos.Observe(time.Since(t0).Nanoseconds() / grants)
	}

	if cap(res.Steps) < n {
		res.Steps = make([]int64, n)
	}
	if cap(res.Finished) < n {
		res.Finished = make([]bool, n)
	}
	res.Steps = res.Steps[:n]
	res.Finished = res.Finished[:n]
	res.TotalSteps = 0
	res.Slots = slots
	res.Restarts = 0
	res.Faults = fault.Counts{}
	for pid := 0; pid < n; pid++ {
		res.Steps[pid] = fr.steps[pid]
		res.TotalSteps += fr.steps[pid]
		res.Finished[pid] = fr.done[pid]
	}
	observeRun(*res, true)
	return err
}

// RunFlat executes one controlled run of m under src with a throwaway
// runner; reuse a FlatRunner for trial loops.
func RunFlat(src sched.Source, m FlatMachine, cfg Config) (Result, error) {
	return NewFlatRunner[FlatMachine]().Run(src, m, cfg)
}
