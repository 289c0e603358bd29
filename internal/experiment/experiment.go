// Package experiment defines the reproduction experiments E1–E21: one per
// quantitative claim in the paper (lemmas, theorems, corollaries) plus
// the ablations called out in DESIGN.md. Each experiment runs trials of
// the relevant protocol under oblivious schedules and renders tables
// comparing measured values with the paper's bounds.
//
// Experiments are deterministic in (Params.Seed, Params.Trials): trial t
// derives its algorithm seed and its adversary seed from disjoint streams
// of the master seed.
package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// Params controls an experiment run.
type Params struct {
	// Trials per configuration (0 = per-experiment default).
	Trials int

	// Seed is the master seed (0 means xrand.DefaultSeed).
	Seed uint64

	// Quick shrinks the sweeps so the whole suite finishes in seconds;
	// used by tests and `go test -bench`.
	Quick bool

	// Parallelism is the number of trial workers (0 or negative means
	// runtime.NumCPU()). Results are byte-identical for any value: trials
	// derive their seeds by index, runTrials returns their results in
	// trial order, and every cell reduces that slice sequentially.
	// TestTablesIdenticalAcrossParallelism and TestGoldenTables pin it.
	Parallelism int
}

func (p Params) withDefaults() Params {
	if p.Seed == 0 {
		p.Seed = xrand.DefaultSeed
	}
	if p.Parallelism < 1 {
		p.Parallelism = runtime.NumCPU()
	}
	return p
}

// trials returns the trial count: the explicit value, or quick/full
// defaults.
func (p Params) trials(quickDefault, fullDefault int) int {
	if p.Trials > 0 {
		return p.Trials
	}
	if p.Quick {
		return quickDefault
	}
	return fullDefault
}

// ns returns the process-count sweep: quick or full.
func (p Params) ns(quick, full []int) []int {
	if p.Quick {
		return quick
	}
	return full
}

// Experiment is a registered, runnable reproduction experiment.
type Experiment struct {
	// ID is the experiment identifier (E1..E12).
	ID string
	// Title is a one-line description.
	Title string
	// Claim cites the paper statement being measured.
	Claim string
	// Run executes the experiment and returns its tables.
	Run func(p Params) []Table
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		e1PriorityDecay(),
		e2PriorityAgreement(),
		e3PrioritySteps(),
		e4SifterDecay(),
		e5SifterEpsilon(),
		e6SifterSteps(),
		e7Embedded(),
		e8Consensus(),
		e9AdoptCommit(),
		e10Schedules(),
		e11Ablations(),
		e12TAS(),
		e13Multiplicity(),
		e14Adversary(),
		e15Substrate(),
		e16EpsilonNecessity(),
		e17FaultSweep(),
		e18DES(),
		e19AttackSearch(),
		e20MonteCarlo(),
		e21Chaos(),
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists all experiment ids.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// trialSeeds holds the two independent seed streams of one trial.
type trialSeeds struct {
	alg   uint64
	sched uint64
}

// seedsFor derives per-trial seeds from the master seed. The algorithm
// and adversary streams are separate forks, preserving obliviousness.
func seedsFor(master uint64, trials int) []trialSeeds {
	algRng := xrand.New(master).ForkNamed(0xa16)
	schRng := xrand.New(master).ForkNamed(0x5c4ed)
	out := make([]trialSeeds, trials)
	for i := range out {
		out[i] = trialSeeds{alg: algRng.Uint64(), sched: schRng.Uint64()}
	}
	return out
}

// runTrials runs fn(t, seeds[t]) for every trial t on p.Parallelism
// workers and returns the results in trial order. It is the package's
// one trial runner; seeds come from seedsFor or from the caller. Workers claim trial
// indices from a shared counter and write only their own result slot, so
// the returned slice is the same for any worker count; callers reduce it
// sequentially, which keeps even inexact float sums byte-identical.
func runTrials[S, R any](p Params, seeds []S, fn func(t int, s S) R) []R {
	out := make([]R, len(seeds))
	workers := p.Parallelism
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, len(seeds))
	if workers <= 1 {
		for t, s := range seeds {
			out[t] = fn(t, s)
		}
		return out
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= len(seeds) {
					return
				}
				out[t] = fn(t, seeds[t])
			}
		}()
	}
	wg.Wait()
	return out
}

// distinctInputs is the id-consensus workload: every process proposes its
// own id, the hardest case for survivor counting.
func distinctInputs(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = i
	}
	return in
}

// binaryInputs is the binary-consensus workload: half zeros, half ones.
func binaryInputs(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = i % 2
	}
	return in
}

// agree reports whether all finished outputs are equal (vacuously true
// when none finished).
func agree(outs []int, finished []bool) bool {
	first := true
	var v int
	for i, o := range outs {
		if !finished[i] {
			continue
		}
		if first {
			v, first = o, false
			continue
		}
		if o != v {
			return false
		}
	}
	return true
}

// random returns the trial's uniform random oblivious schedule over n
// processes.
func (s trialSeeds) random(n int) sched.Source {
	return sched.NewRandom(n, xrand.New(s.sched))
}

// mustRun runs body once per process under src with algorithm seed alg
// and panics on a simulator error (experiments treat one as a
// programming bug, not data).
func mustRun[T any](src sched.Source, alg uint64, body func(p *sim.Proc) T) ([]T, []bool, sim.Result) {
	outs, fin, res, err := sim.Collect(src, sim.Config{AlgSeed: alg}, body)
	if err != nil {
		panic(fmt.Sprintf("experiment: simulation failed: %v", err))
	}
	return outs, fin, res
}
