// Package sim executes n process bodies against the shared-memory
// substrate under either of two execution modes:
//
//   - Controlled: a deterministic scheduler drives processes one
//     shared-memory operation at a time following a sched.Source. The
//     resulting execution is a pure function of (algorithm seed, schedule
//     source), operations never overlap in real time, and per-process step
//     counts are exact. This is the mode every experiment uses and is the
//     direct implementation of the paper's model: at each slot the next
//     process in the schedule executes one operation of its choosing, and
//     slots allocated to finished processes are uncharged no-ops
//     (Section 1.1).
//
//   - Concurrent: processes run as free goroutines over the same
//     linearizable objects, with the Go runtime as the (weak, effectively
//     content-oblivious) scheduler. Its processes are not Exclusive, so
//     the shared objects run on their lock-free representations (atomic
//     pointers and CAS loops; see the memory package), and this mode
//     measures real multi-core throughput. Used by the examples, the
//     -race tests, and the concurrent benchmarks; ConcurrentRunner (in
//     concurrent.go) is the reusable multi-trial harness behind
//     RunConcurrent.
//
// Process bodies receive a *Proc, which carries the process id, a private
// deterministic RNG stream, and the step gate implementing memory.Context.
//
// # Controlled-mode execution engine
//
// Each process body runs inside an iter.Pull coroutine, wrapped in a
// FlatMachine adapter so that the flat engine's FlatRunner is the
// adversary loop for both engines: it draws one schedule slot at a time
// from the source (after an uncharged no-op slot, a source that can look
// ahead without drawing — a sched.Skipper — hands over the no-op slots
// that follow in one call) and resumes the scheduled process's
// coroutine, which executes exactly one shared-memory operation and
// parks at its next Step. A coroutine switch is a direct register-level
// transfer that never goes through the goroutine scheduler, so one
// simulated step costs far less than the park/wake round trip of a
// channel-based engine.
//
// The coroutine engine also makes the run sequential *by construction*:
// at any instant exactly one of {driver, some process} is running, and
// every switch is a synchronization point. That invariant is what lets
// the memory substrate use plain fields in exclusive mode (see
// Proc.Exclusive and the memory package): no two processes of a
// controlled run can ever touch a shared object concurrently.
//
// The per-run state — the runner with its per-process arrays, and the
// adapter's Proc values and scratch buffers — is pooled across runs via
// sync.Pool, so the -parallel trial runner's steady state allocates per
// trial only the coroutines and the Result slices handed to the caller.
package sim

import (
	"errors"
	"iter"
	"sync"
	"sync/atomic"

	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/metrics"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// ErrScheduleExhausted reports that a finite schedule ended before every
// live process finished.
var ErrScheduleExhausted = errors.New("sim: schedule exhausted before all processes finished")

// ErrSlotBudget reports that the safety valve on total schedule slots
// fired, which almost always means a protocol failed to terminate.
var ErrSlotBudget = errors.New("sim: slot budget exceeded")

// meterBatch is the number of granted steps the slot loop amortizes each
// step-latency observation over when metrics are enabled: two clock reads
// per batch instead of two per step.
const meterBatch = 256

// procAborted unwinds a process coroutine whose modeled execution ended
// before the body returned (crashed, schedule exhausted, or budget
// fired). It is recovered at the coroutine boundary; body defers run.
type procAborted struct{}

// Proc is the handle a process body uses to interact with the simulation.
// It implements memory.Context: every shared-memory operation calls Step,
// which in controlled mode parks the coroutine until the adversary
// schedules the process and always charges one step.
type Proc struct {
	id         int
	rng        xrand.Rand
	controlled bool

	// inj is the run's fault injector, nil for unfaulted runs. Proc
	// delegates the memory.Faulter capability to it, adding the pid.
	inj *fault.Injector

	// incarnation counts crash-recovery restarts of this process within
	// the current run; it decorrelates the RNG stream of each rebirth.
	incarnation uint32

	// steps points at the controlled-mode step counter, which the slot
	// loop keeps (it charges the step before resuming the coroutine);
	// every coroutine switch is a synchronization point, so it needs no
	// atomicity. Concurrent mode uses conc instead: a pointer into the
	// runner's cache-line-padded counter slab, so processes hammering
	// their own counters on different cores never write-share a line.
	// Only the goroutine running the process writes *conc (see
	// padSteps), so it too is a plain counter.
	steps *int64
	conc  *int64

	// Controlled-mode coroutine hooks. yield parks the coroutine inside
	// Step; next and stop are the driver's handles on it.
	yield func(struct{}) bool
	next  func() (struct{}, bool)
	stop  func()

	// scratch is the per-process scratch arena: reusable buffers keyed
	// by shared object, handed out through the memory.Scratcher
	// capability so hot-path Scans allocate only on first use.
	scratch map[any]any
}

var _ memory.Context = (*Proc)(nil)
var _ memory.Scratcher = (*Proc)(nil)
var _ memory.Faulter = (*Proc)(nil)

// ID returns the process id in [0, n).
func (p *Proc) ID() int { return p.id }

// Rng returns the process's private random stream. The stream derives
// only from the algorithm seed, never from the schedule, so the adversary
// is oblivious to it.
func (p *Proc) Rng() *xrand.Rand { return &p.rng }

// Steps returns the number of shared-memory steps charged so far. In
// concurrent mode the counter is a plain field written by the process's
// own goroutine, so during a run only that goroutine — the process body
// itself — may call Steps; other goroutines read the final counts from
// the run's Result.
func (p *Proc) Steps() int64 {
	if p.controlled {
		return *p.steps
	}
	return *p.conc
}

// Step implements memory.Context.
func (p *Proc) Step() {
	if p.controlled {
		if !p.yield(struct{}{}) {
			// The modeled execution is over and this process will never
			// be scheduled again; unwind the coroutine (body defers run,
			// and the sentinel is recovered at the coroutine boundary).
			panic(procAborted{})
		}
		return
	}
	*p.conc++
}

// Exclusive implements memory.Context. It reports whether shared objects
// may use their direct representation for this process's operations:
// true exactly in controlled mode, where the coroutine engine makes
// execution sequential by construction.
func (p *Proc) Exclusive() bool { return p.controlled }

// ScratchMap implements memory.Scratcher, exposing the per-process
// scratch arena shared objects use to reuse buffers across operations.
func (p *Proc) ScratchMap() map[any]any {
	if p.scratch == nil {
		p.scratch = make(map[any]any)
	}
	return p.scratch
}

// memory.Faulter delegation: the memory substrate's direct
// representation consults these on every operation; Proc adds its pid
// and forwards to the run's injector. FaultActive is the per-run gate —
// false for every unfaulted run.

// FaultActive implements memory.Faulter.
func (p *Proc) FaultActive() bool { return p.inj != nil }

// FaultOnWrite implements memory.Faulter.
func (p *Proc) FaultOnWrite(key any, v any) { p.inj.OnWrite(key, v) }

// FaultOnRead implements memory.Faulter.
func (p *Proc) FaultOnRead(key any) (any, bool) { return p.inj.ReadFault(p.id, key) }

// FaultScanDepth implements memory.Faulter.
func (p *Proc) FaultScanDepth(obj any) int { return p.inj.ScanDepth(p.id, obj) }

// FaultStaleAt implements memory.Faulter.
func (p *Proc) FaultStaleAt(key any, depth int) (any, bool) { return p.inj.StaleAt(key, depth) }

// procSeq wraps body as the coroutine sequence for p. The first resume
// runs the body to its first Step; every later resume executes exactly
// one operation. The procAborted sentinel is recovered here so stop()
// returns cleanly to the driver.
func procSeq(p *Proc, body Body) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(procAborted); !ok {
					panic(r)
				}
			}
		}()
		p.yield = yield
		body(p)
	}
}

// Config parameterizes a run.
type Config struct {
	// AlgSeed seeds the per-process RNG streams. Two runs with equal
	// AlgSeed and equal schedules are identical.
	AlgSeed uint64

	// MaxSlots bounds the number of schedule slots consumed in controlled
	// mode; exceeding it aborts the run with ErrSlotBudget. Zero means
	// the default of 1 << 26.
	MaxSlots int64

	// Faults is an optional fault schedule (see internal/fault). Non-nil
	// schedules are interpreted by controlled runs only: weakened
	// register semantics, stutters, stalls, and crash-recovery restarts
	// fire at the deterministic clocks the schedule names. Concurrent
	// runs refuse them with ErrConcurrentFaults rather than silently
	// running unfaulted.
	Faults *fault.Schedule
}

const defaultMaxSlots = 1 << 26

// Process-wide throughput counters, aggregated across every completed run.
// They exist so harnesses (consensusbench's -bench-json) can report
// modeled steps/sec and slots/sec per experiment without threading every
// Result back up through the experiment tables.
var (
	totalStepsRun atomic.Int64
	totalSlotsRun atomic.Int64
)

// Counters returns the process-wide totals of modeled shared-memory steps
// and schedule slots consumed by completed runs (controlled slots only;
// concurrent runs contribute steps). Sample it before and after a
// workload to get the workload's totals.
func Counters() (steps, slots int64) {
	return totalStepsRun.Load(), totalSlotsRun.Load()
}

// Cached metrics instruments; all nil (free no-ops) until a registry is
// installed. The step-latency histogram records wall nanoseconds per
// modeled step, amortized over batches of up to meterBatch granted steps:
// the slot loop times the batch and divides by its grant count, which costs
// two clock reads per batch and so stays off the step hot path entirely.
// The window histogram records the grant count of each timed batch.
var (
	mRuns       *metrics.Counter
	mSteps      *metrics.Counter
	mSlots      *metrics.Counter
	mRunSteps   *metrics.Histogram
	mRunSlots   *metrics.Histogram
	mWindowSize *metrics.Histogram
	mStepNanos  *metrics.Histogram
)

func init() {
	metrics.OnEnable(func(r *metrics.Registry) {
		mRuns = r.Counter("sim.runs")
		mSteps = r.Counter("sim.steps")
		mSlots = r.Counter("sim.slots")
		mRunSteps = r.Histogram("sim.run_steps")
		mRunSlots = r.Histogram("sim.run_slots")
		mWindowSize = r.Histogram("sim.window_slots")
		mStepNanos = r.Histogram("sim.step_latency_ns")
	})
}

// observeRun records one completed run into the process-wide counters
// and, when enabled, the metrics registry.
func observeRun(res Result, controlled bool) {
	totalStepsRun.Add(res.TotalSteps)
	if controlled {
		totalSlotsRun.Add(res.Slots)
	}
	if mRuns == nil {
		return
	}
	mRuns.Inc()
	mSteps.Add(res.TotalSteps)
	mRunSteps.Observe(res.TotalSteps)
	if controlled {
		mSlots.Add(res.Slots)
		mRunSlots.Observe(res.Slots)
	}
}

// Result reports what happened during a run.
type Result struct {
	// Steps[i] is the number of shared-memory operations process i
	// executed.
	Steps []int64
	// TotalSteps is the sum of Steps.
	TotalSteps int64
	// Slots is the number of schedule slots consumed, including uncharged
	// no-op slots for finished processes (controlled mode only).
	Slots int64
	// Finished[i] reports whether process i ran to completion. Processes
	// crashed by the schedule never finish. A process restarted by a
	// crash-recovery fault reports its final incarnation's outcome.
	Finished []bool
	// Restarts is the number of crash-recovery restarts delivered
	// (faulted controlled runs only).
	Restarts int64
	// Faults counts the faults actually delivered during the run
	// (faulted controlled runs only).
	Faults fault.Counts
}

// MaxSteps returns the maximum per-process step count (the individual
// step complexity of the execution).
func (r Result) MaxSteps() int64 {
	var max int64
	for _, s := range r.Steps {
		if s > max {
			max = s
		}
	}
	return max
}

// Body is a process body: protocol code executed by process p.
type Body func(p *Proc)

// RunControlled executes n copies of body under the given schedule. It
// returns once every live process has finished, the schedule is exhausted
// (finite schedules), or the slot budget fires.
func RunControlled(src sched.Source, body Body, cfg Config) (Result, error) {
	n := src.N()
	r := runPool.Get().(*coRun)
	for len(r.procs) < n {
		r.procs = append(r.procs, &Proc{})
	}
	r.body, r.seed = body, cfg.AlgSeed

	// Reclaim processes still parked at a Step: stop makes their pending
	// yield return false, unwinding the coroutine through its defers.
	// Then drop every handle on this run, so the pooled state pins
	// neither its body nor its shared objects: a scratch map is keyed by
	// them, and clearing it keeps its buckets warm for the next run. If a
	// body panicked, the panic propagates out of the runner and through
	// here, and the state is not pooled.
	pooled := false
	defer func() {
		for _, p := range r.procs[:n] {
			if p.stop != nil {
				p.stop()
			}
			p.next, p.stop, p.yield, p.inj = nil, nil, nil, nil
			if p.scratch != nil {
				clear(p.scratch)
			}
		}
		r.body = nil
		if pooled {
			runPool.Put(r)
		}
	}()
	var res Result
	err := r.fr.run(src, coMachine{r}, cfg, &res)
	pooled = true
	return res, err
}

// coRun is RunControlled's pooled per-run state: the runner that drives
// the run and the processes its coroutine adapter resumes. Exactly one
// goroutine owns a coRun at a time.
type coRun struct {
	fr       *FlatRunner[coMachine]
	procs    []*Proc
	body     Body
	seed     uint64
	returned bool // the body the last Init primed returned without a step
}

var runPool = sync.Pool{New: func() any { return &coRun{fr: NewFlatRunner[coMachine]()} }}

// coMachine adapts coroutine bodies to FlatMachine, so RunControlled runs
// through FlatRunner's slot loop. It is a one-pointer struct rather than
// a pointer so that FlatRunner[coMachine] gets its own instantiation
// instead of the one every pointer machine shares.
type coMachine struct{ r *coRun }

// Init primes pid's coroutine: the body runs to its first Step, or to
// its end if it takes none.
func (c coMachine) Init(pid int, rng *xrand.Rand) {
	p := c.r.procs[pid]
	p.id, p.rng, p.controlled, p.inj = pid, *rng, true, c.r.fr.inj
	p.steps, p.incarnation = &c.r.fr.steps[pid], 0
	c.r.returned = c.r.start(p)
}

// Step resumes pid's coroutine for exactly one operation.
func (c coMachine) Step(pid int, _ *xrand.Rand) bool {
	_, ok := c.r.procs[pid].next()
	return !ok
}

// restart delivers a crash-recovery fault to pid: the current
// incarnation's coroutine is unwound (amnesia — all local state is
// lost), and the body restarts from the top with a fresh private RNG
// stream decorrelated by the incarnation count. Shared writes and
// cumulative step counts persist. It reports whether the reborn body
// returned without a step.
func (c coMachine) restart(pid int) bool {
	p := c.r.procs[pid]
	p.stop()
	p.incarnation++
	var root xrand.Rand
	root.Reseed(c.r.seed)
	root.ForkNamedInto(uint64(pid)|uint64(p.incarnation)<<32, &p.rng)
	return c.r.start(p)
}

// start runs a fresh coroutine of the body for p up to its first Step
// and reports whether the body returned before taking one.
func (r *coRun) start(p *Proc) bool {
	if p.scratch != nil {
		clear(p.scratch)
	}
	p.next, p.stop = iter.Pull(procSeq(p, r.body))
	_, ok := p.next()
	return !ok
}

// Collect runs body under the controlled scheduler and gathers one output
// value per process. Crashed (never-finished) processes report ok=false.
func Collect[V any](src sched.Source, cfg Config, body func(p *Proc) V) ([]V, []bool, Result, error) {
	n := src.N()
	outs := make([]V, n)
	res, err := RunControlled(src, func(p *Proc) {
		outs[p.ID()] = body(p)
	}, cfg)
	return outs, res.Finished, res, err
}

// CollectConcurrent is Collect for the concurrent mode. Processes that
// panicked (see RunConcurrent) report the zero V and Finished=false.
func CollectConcurrent[V any](n int, cfg Config, body func(p *Proc) V) ([]V, Result, error) {
	outs := make([]V, n)
	res, err := RunConcurrent(n, func(p *Proc) {
		outs[p.ID()] = body(p)
	}, cfg)
	return outs, res, err
}
