package sim

import (
	"errors"
	"fmt"
	"math"
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
//     do. The runner lets only RunControlled's coroutine adapter finish a
//     process in Init, for bodies that return without a step.)
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

// FlatRunner drives FlatMachines under schedule sources with the paper's
// slot semantics: one operation per charged slot, uncharged no-op slots
// for finished or crashed processes (skipped in bulk after a no-op when
// the source is a sched.Skipper), a slot budget, and one RNG stream per
// process forked from the algorithm seed in pid order. Its slot loop is
// the package's only one: RunControlled runs coroutine bodies through it
// too, and only for RunControlled does the loop interpret a fault
// schedule. A runner is reusable across runs and, with RunInto,
// allocation-free in steady state; it is not safe for concurrent use.
//
// The type parameter only types the machine argument; it does not
// devirtualize Step. Go stencils generic code per GC shape, so every
// pointer machine shares the FlatRunner[go.shape.*uint8] instantiation
// and Step is called through its dictionary.
type FlatRunner[M FlatMachine] struct {
	state   []uint8 // per-process stDone and stWaste bits
	steps   []int64
	rngs    []xrand.Rand
	doneCnt int

	// Skip-predicate state, referenced by the pre-built closure so runs
	// do not allocate. ca is the current run's crash-aware source view.
	ca       sched.CrashAware
	batch    int
	skipPred func(pid int) bool

	// The current run's fault injector (RunControlled only) and the slot
	// clock of its next process fault.
	inj     *fault.Injector
	faultAt int64

	// Step metering (metrics enabled only): steps granted since t0 and not
	// yet observed. Fields, so the slot loop carries fewer locals.
	grants int64
	t0     time.Time
}

// Per-process state bits of a run. A slot granted to a process with
// either bit set leaves the step path: stDone makes it a no-op, stWaste
// asks the fault injector whether a stutter or stall consumes it.
const (
	stDone  uint8 = 1 << iota // finished
	stWaste                   // a delivered stutter or stall may be pending
)

// NewFlatRunner returns a reusable runner for machines of type M.
func NewFlatRunner[M FlatMachine]() *FlatRunner[M] {
	fr := &FlatRunner[M]{}
	// Built once so the hot loop never allocates a closure. It accepts a
	// slot only when the loop, drawing it, would spend it as a no-op and
	// go on: the pid is finished or crashed, and the run is not over.
	// Skipping therefore never changes a Result (slots a skip consumes
	// past the budget are clamped away). Without crashes a run cannot end
	// during a skip, since no process steps, so only crash-aware sources
	// pay the liveDone scan: their crash clock can end the run mid-skip.
	fr.skipPred = func(pid int) bool {
		if fr.batch >= skipBatch || fr.state[pid]&stDone == 0 && fr.alive(pid) || fr.ca != nil && fr.liveDone() {
			return false
		}
		fr.batch++
		return true
	}
	return fr
}

func (fr *FlatRunner[M]) alive(pid int) bool { return fr.ca == nil || fr.ca.Alive(pid) }

// liveDone reports whether every process the schedule has not crashed
// has finished. Without crashes every process eventually finishes, so
// the count alone decides; only crash-aware sources pay the O(n) scan.
func (fr *FlatRunner[M]) liveDone() bool {
	return fr.doneCnt == len(fr.state) || fr.ca != nil && fr.survivorsDone()
}

func (fr *FlatRunner[M]) survivorsDone() bool {
	for pid, st := range fr.state {
		if st&stDone == 0 && fr.ca.Alive(pid) {
			return false
		}
	}
	return true
}

// skipBatch bounds the no-op slots one SkipWhile call may consume, so a
// skip overshoots the slot budget by at most this much before the loop
// clamps Result.Slots.
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
	return fr.run(src, m, cfg, res)
}

// run is the slot loop. When m is RunControlled's coroutine adapter, a
// body may finish during Init, and the loop interprets cfg.Faults.
func (fr *FlatRunner[M]) run(src sched.Source, m M, cfg Config, res *Result) error {
	n := src.N()
	maxSlots := cfg.MaxSlots
	if maxSlots <= 0 {
		maxSlots = defaultMaxSlots
	}
	fr.inj, fr.faultAt = nil, math.MaxInt64
	if cfg.Faults != nil {
		inj, err := fault.NewInjector(cfg.Faults, n)
		if err != nil {
			return err
		}
		fr.inj, fr.faultAt = inj, inj.NextSlot()
	}

	if cap(fr.state) < n {
		fr.state = make([]uint8, n)
		fr.steps = make([]int64, n)
		fr.rngs = make([]xrand.Rand, n)
	}
	fr.state, fr.steps, fr.rngs = fr.state[:n], fr.steps[:n], fr.rngs[:n]
	clear(fr.state)
	clear(fr.steps)
	fr.doneCnt = 0

	// One root reseed, then one named fork per process in pid order (each
	// fork consumes one draw of the root stream).
	var root xrand.Rand
	root.Reseed(cfg.AlgSeed)
	for i := 0; i < n; i++ {
		root.ForkNamedInto(uint64(i), &fr.rngs[i])
	}
	// Priming: all pre-first-step randomness, in pid order. Code before
	// the first operation touches nothing shared, so the order is
	// unobservable. A coroutine body may return without taking a step.
	co, isCo := any(m).(coMachine)
	for pid := 0; pid < n; pid++ {
		m.Init(pid, &fr.rngs[pid])
		if isCo && co.r.returned {
			fr.state[pid] = stDone
			fr.doneCnt++
		}
	}

	fr.ca, _ = src.(sched.CrashAware)
	skipper, _ := src.(sched.Skipper)
	if fr.inj != nil {
		// Slot-addressed fault events must observe every slot index, so
		// bulk no-op skipping is off for faulted runs (the same trade
		// trace.RecordingSource makes to see every slot).
		skipper = nil
	}
	// The loop looks at the fault clock only once the slot clock reaches
	// limit, so an unfaulted slot pays no more than the budget compare.
	limit := min(maxSlots, fr.faultAt)

	metered := mStepNanos != nil
	fr.grants = 0
	var (
		slots int64
		err   error
	)

	for {
		if slots >= limit || fr.liveDone() {
			if slots >= fr.faultAt {
				// Faults due at the top of this slot are delivered before
				// the run-over check, since a restart can un-finish it.
				limit = min(maxSlots, fr.deliver(m, slots))
				continue
			}
			if !fr.liveDone() {
				slots = maxSlots
				err = fmt.Errorf("%w (budget %d)", ErrSlotBudget, maxSlots)
			}
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
		if st := fr.state[pid]; st != 0 || !fr.alive(pid) {
			if st != stWaste || !fr.alive(pid) {
				// Uncharged no-op slot, per the model; a source that can
				// peek hands over the no-op slots that follow in one call.
				if skipper != nil {
					fr.batch = 0
					slots = min(slots+skipper.SkipWhile(fr.skipPred), maxSlots)
				}
				continue
			}
			if fr.inj.Wasted(pid, slots-1) {
				// A stutter or stall consumes the slot without running the
				// process: the schedule advances, no step is charged.
				continue
			}
			fr.state[pid] = 0
		}
		if metered && fr.grants == 0 {
			fr.t0 = time.Now()
		}
		fr.steps[pid]++
		if m.Step(pid, &fr.rngs[pid]) {
			fr.state[pid] = stDone
			fr.doneCnt++
		}
		if metered {
			if fr.grants++; fr.grants >= meterBatch {
				fr.observeSteps()
			}
		}
	}
	if metered && fr.grants > 0 {
		fr.observeSteps()
	}

	if cap(res.Steps) < n {
		res.Steps = make([]int64, n)
	}
	if cap(res.Finished) < n {
		res.Finished = make([]bool, n)
	}
	*res = Result{Steps: res.Steps[:n], Slots: slots, Finished: res.Finished[:n]}
	for pid := 0; pid < n; pid++ {
		res.Steps[pid] = fr.steps[pid]
		res.TotalSteps += fr.steps[pid]
		res.Finished[pid] = fr.state[pid]&stDone != 0
	}
	if fr.inj != nil {
		res.Faults = fr.inj.Counts()
		res.Restarts = res.Faults.Restarts
	}
	fr.ca, fr.inj = nil, nil // do not pin this run's source or faults
	observeRun(*res, true)
	return err
}

// observeSteps records the open metering batch: its size and the
// amortized wall time per granted step.
func (fr *FlatRunner[M]) observeSteps() {
	mWindowSize.Observe(fr.grants)
	mStepNanos.Observe(time.Since(fr.t0).Nanoseconds() / fr.grants)
	fr.grants = 0
}

// deliver hands out the process faults due at slot and returns the slot
// of the next one. Stutters and stalls mark their target for the
// injector's Wasted check; restarts go to the coroutine adapter.
func (fr *FlatRunner[M]) deliver(m M, slot int64) int64 {
	for _, e := range fr.inj.Advance(slot) {
		if e.Kind != fault.CrashRecover {
			fr.state[e.Pid] |= stWaste
		}
	}
	for pid, ok := fr.inj.TakeRestart(); ok; pid, ok = fr.inj.TakeRestart() {
		// Schedule-level crashes are permanent: a pid the adversary
		// crashed does not recover.
		if !fr.alive(pid) {
			continue
		}
		if fin := any(m).(coMachine).restart(pid); fin != (fr.state[pid]&stDone != 0) {
			fr.state[pid] ^= stDone
			if fin {
				fr.doneCnt++
			} else {
				fr.doneCnt--
			}
		}
	}
	fr.faultAt = fr.inj.NextSlot()
	return fr.faultAt
}

// RunFlat executes one controlled run of m under src with a throwaway
// runner; reuse a FlatRunner for trial loops.
func RunFlat(src sched.Source, m FlatMachine, cfg Config) (Result, error) {
	return NewFlatRunner[FlatMachine]().Run(src, m, cfg)
}
