// Concurrent execution harness: free-running goroutines over the
// lock-free memory substrate, with the Go runtime as the weak adversary.
//
// ConcurrentRunner is the reusable form: it spawns its worker goroutines
// once and runs many trials over them, so a benchmark or stress sweep
// pays goroutine/stack setup once rather than n times per trial. Step
// counters live in a cache-line-padded slab — one line per process — so
// per-step accounting never write-shares a cache line across cores.
package sim

import (
	"errors"
	"fmt"
	"sync"

	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// ErrConcurrentFaults reports a fault schedule handed to a concurrent
// run. Fault injection is defined over the controlled engine's
// deterministic slot clock; a concurrent run has no such clock, so
// rather than silently running unfaulted the run is refused.
var ErrConcurrentFaults = errors.New("sim: fault schedules require the controlled engine (concurrent runs have no slot clock)")

// cacheLine is the assumed coherence-line size. 64 bytes covers x86-64
// and most arm64 parts; on 128-byte-line machines adjacent counters
// still share at worst one neighbor, no worse than the unpadded layout.
const cacheLine = 64

// padSteps is one process's concurrent step counter, padded out to a
// full cache line so neighboring processes' counters never false-share.
// Only the goroutine running the process touches n during a trial: Run
// zeroes it before handing the process to a worker over the work channel
// and reads it after wg.Wait, and both are happens-before edges, so n
// needs no atomicity.
type padSteps struct {
	n int64
	_ [cacheLine - 8]byte
}

// ConcurrentRunner executes trials of n free-running processes, reusing
// its worker goroutines, Proc values, and padded step-counter slab
// across trials. It is single-client: one Run at a time. Close releases
// the workers; a runner is cheap enough to create per benchmark or test,
// but creating one per trial forfeits the reuse that makes it fast.
type ConcurrentRunner struct {
	n       int
	workers int
	procs   []*Proc
	steps   []padSteps

	work chan int // process indices for the current trial
	wg   sync.WaitGroup

	body     Body
	finished []bool

	panicMu    sync.Mutex
	panicErr   error
	panicProcs []int
}

// NewConcurrentRunner returns a runner for n-process trials backed by
// `workers` goroutines (workers <= 0 or > n means one per process).
// Running with workers < n multiplexes process bodies over the pool —
// useful for scaling n beyond what GOMAXPROCS can productively overlap —
// and is safe for the wait-free protocols in this repository; a body
// that spin-waits on another process's write could livelock when its
// peer has no worker to run on, so such bodies need workers == n.
func NewConcurrentRunner(n, workers int) *ConcurrentRunner {
	if n <= 0 {
		panic("sim: ConcurrentRunner needs n > 0")
	}
	if workers <= 0 || workers > n {
		workers = n
	}
	r := &ConcurrentRunner{
		n:        n,
		workers:  workers,
		procs:    make([]*Proc, n),
		steps:    make([]padSteps, n),
		work:     make(chan int),
		finished: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		r.procs[i] = &Proc{id: i, conc: &r.steps[i].n}
	}
	for w := 0; w < workers; w++ {
		go r.worker()
	}
	return r
}

// worker pulls process indices and runs the current trial's body on
// them, recovering panics so one broken process body reports an error
// instead of tearing down the whole trial runner.
func (r *ConcurrentRunner) worker() {
	for idx := range r.work {
		r.runOne(idx)
	}
}

func (r *ConcurrentRunner) runOne(idx int) {
	defer r.wg.Done()
	defer func() {
		if rec := recover(); rec != nil {
			r.panicMu.Lock()
			if r.panicErr == nil {
				r.panicErr = fmt.Errorf("sim: process %d panicked: %v", idx, rec)
			}
			r.panicProcs = append(r.panicProcs, idx)
			r.panicMu.Unlock()
		}
	}()
	r.body(r.procs[idx])
	// One worker owns idx per trial, and Run reads finished only after
	// wg.Wait, so this needs no atomicity.
	r.finished[idx] = true
}

// Run executes one trial: every process body to completion (or panic).
// The returned error is the first panic, if any; the panicking process
// reports Finished=false while the others still run to completion and
// report their steps. Fault-configured runs are refused with
// ErrConcurrentFaults.
func (r *ConcurrentRunner) Run(body Body, cfg Config) (Result, error) {
	if cfg.Faults != nil {
		return Result{}, ErrConcurrentFaults
	}
	var root xrand.Rand
	root.Reseed(cfg.AlgSeed)
	for i := 0; i < r.n; i++ {
		p := r.procs[i]
		root.ForkNamedInto(uint64(i), &p.rng)
		if p.scratch != nil {
			clear(p.scratch)
		}
		r.steps[i].n = 0
		r.finished[i] = false
	}
	r.body = body
	r.panicErr = nil
	r.panicProcs = r.panicProcs[:0]
	r.wg.Add(r.n)
	for i := 0; i < r.n; i++ {
		r.work <- i
	}
	r.wg.Wait()

	res := Result{
		Steps:    make([]int64, r.n),
		Finished: make([]bool, r.n),
	}
	for i := 0; i < r.n; i++ {
		res.Steps[i] = r.steps[i].n
		res.TotalSteps += res.Steps[i]
		res.Finished[i] = r.finished[i]
	}
	observeRun(res, false)
	return res, r.panicErr
}

// N returns the number of processes per trial.
func (r *ConcurrentRunner) N() int { return r.n }

// Workers returns the size of the worker pool.
func (r *ConcurrentRunner) Workers() int { return r.workers }

// Close releases the worker goroutines. The runner must be idle.
func (r *ConcurrentRunner) Close() { close(r.work) }

// RunConcurrent executes n copies of body as free-running goroutines and
// waits for all of them. The Go scheduler plays the adversary; since it
// cannot observe the processes' private RNG streams, it is
// (heuristically) a weak adversary in the paper's sense. One-shot
// convenience over ConcurrentRunner — sweeps that run many trials should
// hold a runner instead.
func RunConcurrent(n int, body Body, cfg Config) (Result, error) {
	r := NewConcurrentRunner(n, 0)
	defer r.Close()
	return r.Run(body, cfg)
}
