package consensus

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/stats"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// MCConfig configures a Monte Carlo sweep of flat-engine consensus
// trials.
type MCConfig struct {
	// N is the number of processes per trial.
	N int
	// Trials is the number of independent trials.
	Trials int64
	// Flat selects the protocol.
	Flat FlatConfig
	// Sched is the schedule family driving every trial.
	Sched sched.Kind
	// Seed derives each trial's schedule seed and algorithm seed by a
	// pure function of (Seed, trial index): results are byte-identical
	// for any worker count or chunk size.
	Seed uint64
	// Workers is the worker-goroutine count (0 = GOMAXPROCS).
	Workers int
	// ChunkSize is the largest number of trials a worker claims at a
	// time (0 = 256); claims shrink below it as the sweep drains.
	ChunkSize int64
}

// MCResult aggregates a Monte Carlo sweep. All histograms are exact:
// merging worker-local shards loses nothing, unlike subsampled or
// bucketed summaries.
type MCResult struct {
	Trials int64
	N      int

	// Agreed counts trials whose finished processes all decided the same
	// value (every trial should agree; disagreement would falsify the
	// protocol, not the statistics).
	Agreed int64

	// Steps is the per-process individual step distribution
	// (N observations per trial).
	Steps *stats.IntHist
	// MaxSteps is the per-trial maximum individual step count.
	MaxSteps *stats.IntHist
	// Phases is the per-process phases-to-decide distribution.
	Phases *stats.IntHist

	TotalSteps int64
	TotalSlots int64

	Elapsed     time.Duration
	StepsPerSec float64
}

// trialSeeds derives trial t's (algorithm seed, schedule seed) as a pure
// function of (base, t), independent of which worker runs the trial.
func trialSeeds(base, t uint64) (algSeed, schedSeed uint64) {
	var root, tr xrand.Rand
	root.Reseed(base)
	root.ForkNamedInto(t, &tr)
	return tr.Uint64(), tr.Uint64()
}

// mcWorker is one worker's reusable trial state.
type mcWorker struct {
	machine *FlatConsensus
	runner  *sim.FlatRunner[*FlatConsensus]
	res     sim.Result

	agreed, totalSteps, totalSlots int64
	steps, maxSteps, phases        *stats.IntHist
}

func newMCWorker(m *FlatConsensus) *mcWorker {
	return &mcWorker{
		machine:  m,
		runner:   sim.NewFlatRunner[*FlatConsensus](),
		steps:    stats.NewIntHist(1024),
		maxSteps: stats.NewIntHist(1024),
		phases:   stats.NewIntHist(64),
	}
}

func (w *mcWorker) runTrial(cfg *MCConfig, t int64) error {
	algSeed, schedSeed := trialSeeds(cfg.Seed, uint64(t))
	src := sched.New(cfg.Sched, cfg.N, schedSeed)
	w.machine.Reset(nil)
	if err := w.runner.RunInto(src, w.machine, sim.Config{AlgSeed: algSeed}, &w.res); err != nil {
		return fmt.Errorf("trial %d: %w", t, err)
	}
	w.totalSteps += w.res.TotalSteps
	w.totalSlots += w.res.Slots
	var maxSteps int64
	agreed := true
	var first int64
	haveFirst := false
	for pid := 0; pid < cfg.N; pid++ {
		if s := w.res.Steps[pid]; s > maxSteps {
			maxSteps = s
		}
		if !w.res.Finished[pid] {
			continue
		}
		w.steps.Add(w.res.Steps[pid])
		w.phases.Add(int64(w.machine.Phases(pid)))
		if v := w.machine.Output(pid); !haveFirst {
			first, haveFirst = v, true
		} else if v != first {
			agreed = false
		}
	}
	w.maxSteps.Add(maxSteps)
	if agreed {
		w.agreed++
	}
	return nil
}

// claimSize is how many trials a worker claims while remaining trials
// are unclaimed (guided self-scheduling): claims shrink from chunk as the
// sweep drains, so the workers run out of trials together.
func claimSize(remaining, chunk int64, workers int) int64 {
	return min(chunk, max(1, remaining/(2*int64(workers))))
}

// RunMonteCarlo runs cfg.Trials independent flat-engine consensus trials
// across workers with worker-local streaming aggregation: the hot loop
// reuses one machine, one runner, and one Result per worker, so
// steady-state trials do not allocate. Claims shrink from ChunkSize as the
// sweep drains; the calling goroutine runs worker 0. The aggregate is
// byte-identical for any Workers/ChunkSize setting.
func RunMonteCarlo(cfg MCConfig) (*MCResult, error) {
	if cfg.N < 1 || cfg.Trials < 1 {
		return nil, fmt.Errorf("consensus: Monte Carlo needs N >= 1 and Trials >= 1, got N=%d Trials=%d", cfg.N, cfg.Trials)
	}
	if !slices.Contains(sched.Kinds(), cfg.Sched) {
		return nil, fmt.Errorf("consensus: Monte Carlo needs a schedule family, got %v", cfg.Sched)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = int(min(int64(workers), cfg.Trials))
	chunk := cfg.ChunkSize
	if chunk <= 0 {
		chunk = 256
	}

	start := time.Now()
	ws := make([]*mcWorker, workers)
	for wi := range ws {
		m, err := NewFlat(cfg.N, cfg.Flat) // the first call validates cfg.Flat
		if err != nil {
			return nil, err
		}
		ws[wi] = newMCWorker(m)
	}
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(workers)
	work := func(w *mcWorker) {
		defer wg.Done()
		for hi := int64(0); hi < cfg.Trials && firstErr.Load() == nil; {
			n := claimSize(cfg.Trials-next.Load(), chunk, workers)
			hi = next.Add(n)
			for t := hi - n; t < min(hi, cfg.Trials); t++ {
				if err := w.runTrial(&cfg, t); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}
	}
	for _, w := range ws[1:] {
		go work(w)
	}
	work(ws[0])
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return nil, err
	}

	out := &MCResult{
		Trials:   cfg.Trials,
		N:        cfg.N,
		Steps:    stats.NewIntHist(1024),
		MaxSteps: stats.NewIntHist(1024),
		Phases:   stats.NewIntHist(64),
		Elapsed:  time.Since(start),
	}
	for _, w := range ws {
		out.Agreed += w.agreed
		out.TotalSteps += w.totalSteps
		out.TotalSlots += w.totalSlots
		out.Steps.Merge(w.steps)
		out.MaxSteps.Merge(w.maxSteps)
		out.Phases.Merge(w.phases)
	}
	if secs := out.Elapsed.Seconds(); secs > 0 {
		out.StepsPerSec = float64(out.TotalSteps) / secs
	}
	return out, nil
}
