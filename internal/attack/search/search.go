package search

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/stats"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// Config parameterizes one search run. A run is a pure function of the
// whole struct except Parallelism, which only changes wall-clock time.
type Config struct {
	// Protocol names the stack under attack (see Protocols()).
	Protocol string
	// N is the process count, in [2, 64].
	N int
	// Seed drives every random choice (0 = xrand.DefaultSeed).
	Seed uint64
	// Budget is the total number of candidate evaluations the
	// evolutionary loop may spend, including the initial population
	// (default 96; shrinking and confirmation are budgeted separately).
	Budget int
	// Pop is the population size (default 12).
	Pop int
	// EvalTrials is the number of (algorithm seed, schedule seed) pairs
	// each candidate is scored on — the same pairs for every candidate,
	// so selection compares like with like (default 6).
	EvalTrials int
	// ConfirmTrials scores the final winner on this many fresh seed
	// pairs, disjoint from the search seeds: the confirmation score is
	// an unbiased estimate, free of the selection bias a maximizing
	// search puts on its own evaluation seeds (default 24).
	ConfirmTrials int
	// RestartRate is the ε-greedy restart probability: each offspring
	// slot is filled with a fresh random genome instead of a
	// mutate(crossover(...)) child with this probability (default 0.15).
	RestartRate float64
	// Faults allows stutter/stall fault-schedule components in genomes.
	Faults bool
	// ShrinkBudget caps the evaluations the ddmin shrinker spends
	// (default 64).
	ShrinkBudget int
	// MaxSlots is the per-trial slot budget (default 1<<22).
	MaxSlots int64
	// Parallelism is the number of evaluation workers (0 = NumCPU).
	// Results are byte-identical for any value.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = xrand.DefaultSeed
	}
	if c.Budget <= 0 {
		c.Budget = 96
	}
	if c.Pop <= 0 {
		c.Pop = 12
	}
	if c.Pop > c.Budget {
		c.Pop = c.Budget
	}
	if c.EvalTrials <= 0 {
		c.EvalTrials = 6
	}
	if c.ConfirmTrials <= 0 {
		c.ConfirmTrials = 24
	}
	if c.RestartRate <= 0 {
		c.RestartRate = 0.15
	}
	if c.ShrinkBudget <= 0 {
		c.ShrinkBudget = 64
	}
	if c.MaxSlots <= 0 {
		c.MaxSlots = 1 << 22
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
	return c
}

func (c Config) validate() error {
	if c.N < 2 || c.N > 64 {
		return fmt.Errorf("search: process count %d outside [2, 64]", c.N)
	}
	if _, err := protocolByName(c.Protocol); err != nil {
		return err
	}
	return nil
}

// Score aggregates one candidate's trials. StepsMean — the mean over
// trials of the slowest process's steps to decision — is the fitness the
// search maximizes; phases count the consensus rounds the adversary
// forced.
type Score struct {
	// StepsMean is the mean over trials of max individual steps.
	StepsMean float64 `json:"steps_mean"`
	// StepsCI95 is the 95% confidence half-width of StepsMean.
	StepsCI95 float64 `json:"steps_ci95"`
	// StepsMax is the largest individual step count in any trial.
	StepsMax int64 `json:"steps_max"`
	// TotalMean is the mean over trials of total steps.
	TotalMean float64 `json:"total_steps_mean"`
	// PhasesMean is the mean over trials of the max phases any process
	// used.
	PhasesMean float64 `json:"phases_mean"`
	// PhasesMax is the largest phase count in any trial.
	PhasesMax int `json:"phases_max"`
	// Undecided counts trials where some process failed to decide
	// within the slot budget (0 in healthy runs).
	Undecided int `json:"undecided,omitempty"`
}

// seedPair is one trial's independent seed streams (algorithm coins vs
// adversary schedule), mirroring the experiment harness.
type seedPair struct {
	alg   uint64
	sched uint64
}

// evalSeeds derives the candidate-evaluation seed pairs; confirmSeeds the
// disjoint confirmation pairs. Named forks keep the four streams
// independent of each other and of the genome-generation stream.
func evalSeeds(master uint64, trials int) []seedPair {
	return derivePairs(master, trials, 0xa19, 0x5ced)
}

func confirmSeeds(master uint64, trials int) []seedPair {
	return derivePairs(master, trials, 0xc0f1, 0xc05d)
}

func derivePairs(master uint64, trials int, algLabel, schedLabel uint64) []seedPair {
	algRng := xrand.New(master).ForkNamed(algLabel)
	schRng := xrand.New(master).ForkNamed(schedLabel)
	out := make([]seedPair, trials)
	for i := range out {
		out[i] = seedPair{alg: algRng.Uint64(), sched: schRng.Uint64()}
	}
	return out
}

// Result is one completed search.
type Result struct {
	// Config echoes the (defaulted) inputs.
	Config Config
	// Winner is the ddmin-shrunk best genome.
	Winner *Genome
	// Evaluations is how many candidate evaluations were spent in total
	// (search loop + shrinking).
	Evaluations int
	// Score is the winner's score on the search's evaluation seeds.
	Score Score
	// Confirm is the winner's score on the fresh confirmation seeds.
	Confirm Score
	// WhiteBox scores the coin-aware graft — the white-box phase-1
	// freeze from internal/attack prepended to the winner's own
	// schedule — on the same confirmation seeds. It can do everything
	// the winner does plus read the coins, so Confirm must not exceed
	// it (the strength separation E19 tables and tests pin).
	WhiteBox Score
	// Baselines scores friendly schedules ("round-robin", "random") on
	// the confirmation seeds, for the E19 comparison.
	Baselines map[string]Score
}

// evaluator scores genomes for one (protocol, n) search.
type evaluator struct {
	def      protocolDef
	n        int
	maxSlots int64
}

// sourceKind selects how the evaluator builds a trial's schedule.
type sourceKind int

const (
	srcGenome sourceKind = iota
	srcWhiteBox
	srcRoundRobin
	srcRandom
)

// score runs the genome (or a baseline) over the seed pairs and
// aggregates. Each trial is a fresh consensus instance under a schedule
// rebuilt from the trial's schedule seed; the returned aggregates are
// the ONLY thing the caller ever sees — coins and register contents stay
// inside the simulator, which is what keeps the search oblivious.
func (ev *evaluator) score(g *Genome, seeds []seedPair, kind sourceKind) (Score, error) {
	var s Score
	stepSamples := make([]int64, 0, len(seeds))
	for _, sp := range seeds {
		var (
			src sched.Source
			err error
		)
		switch kind {
		case srcGenome, srcWhiteBox:
			src, err = g.Source(sp.sched)
			if err != nil {
				return s, err
			}
			if kind == srcWhiteBox {
				// The coin-aware prefix freezes phase 1 (no conciliator
				// agreement is possible under it), then hands over to the
				// genome's own schedule: strictly more adversarial power.
				src = sched.NewSeq(ev.def.whiteboxPrefix(ev.n, sp.alg), src)
			}
		case srcRoundRobin:
			src = sched.NewRoundRobin(ev.n)
		case srcRandom:
			src = sched.NewRandom(ev.n, xrand.New(sp.sched))
		}
		cfg := sim.Config{AlgSeed: sp.alg, MaxSlots: ev.maxSlots}
		if kind == srcGenome || kind == srcWhiteBox {
			cfg.Faults = g.Fault
		}
		proto := ev.def.build(ev.n)
		_, fin, res, runErr := sim.Collect(src, cfg, func(p *sim.Proc) int {
			return proto.Propose(p, p.ID())
		})
		decided := runErr == nil
		for _, f := range fin {
			decided = decided && f
		}
		if !decided {
			// Slot-budget exhaustion is data, not an error: the observed
			// steps still lower-bound the adversary's damage.
			s.Undecided++
		}
		if m := res.MaxSteps(); m > s.StepsMax {
			s.StepsMax = m
		}
		stepSamples = append(stepSamples, res.MaxSteps())
		s.TotalMean += float64(res.TotalSteps)
		ph := proto.MaxPhases()
		s.PhasesMean += float64(ph)
		if ph > s.PhasesMax {
			s.PhasesMax = ph
		}
	}
	sum := stats.SummarizeInts(stepSamples)
	s.StepsMean, s.StepsCI95 = sum.Mean, sum.CI95()
	k := float64(len(seeds))
	s.TotalMean /= k
	s.PhasesMean /= k
	return s, nil
}

// scoreBatch evaluates candidates across workers pulling indices from an
// atomic counter. Workers write only cands[i]'s slot, so results are
// identical for any worker count.
func (ev *evaluator) scoreBatch(cands []*Genome, seeds []seedPair, workers int) ([]Score, error) {
	scores := make([]Score, len(cands))
	errs := make([]error, len(cands))
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers <= 1 {
		for i, g := range cands {
			scores[i], errs[i] = ev.score(g, seeds, srcGenome)
		}
	} else {
		var (
			next atomic.Int64
			wg   sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(cands) {
						return
					}
					scores[i], errs[i] = ev.score(cands[i], seeds, srcGenome)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return scores, nil
}

// member pairs a genome with its score and arrival order, the unit of
// selection.
type member struct {
	g     *Genome
	score Score
	born  int // arrival index, the deterministic tie-breaker
}

// fitter reports whether a beats b: higher mean steps, then higher mean
// phases, then earlier arrival (stable under exact ties).
func fitter(a, b member) bool {
	if a.score.StepsMean != b.score.StepsMean {
		return a.score.StepsMean > b.score.StepsMean
	}
	if a.score.PhasesMean != b.score.PhasesMean {
		return a.score.PhasesMean > b.score.PhasesMean
	}
	return a.born < b.born
}

// Search runs the evolutionary loop: evaluate a seeded random
// population, then repeatedly breed (tournament parents, crossover,
// mutation) with ε-greedy random restarts, keeping the fittest Pop
// members, until the evaluation budget is spent. The best genome is then
// ddmin-shrunk and re-scored on fresh confirmation seeds next to its
// white-box graft and the friendly baselines.
func Search(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	def, err := protocolByName(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	ev := &evaluator{def: def, n: cfg.N, maxSlots: cfg.MaxSlots}
	seeds := evalSeeds(cfg.Seed, cfg.EvalTrials)

	// The genome stream drives generation, selection, and mutation; it is
	// independent of the evaluation seed streams, so reshaping the search
	// never changes what any given candidate scores.
	genomeRng := xrand.New(cfg.Seed).ForkNamed(0x9e0e)

	born := 0
	fresh := func() *Genome {
		born++
		return randomGenome(cfg.N, genomeRng, cfg.Faults)
	}

	pop := make([]member, 0, cfg.Pop)
	cands := make([]*Genome, cfg.Pop)
	// Seed the population with the canonical schedule shapes so the
	// winner can never lose (on the evaluation seeds) to a baseline the
	// search could trivially emit; the rest start random.
	canonical := []*Genome{
		{N: cfg.N}, // uniform weighted draw
		{N: cfg.N, Segments: []Segment{{Mode: "round-robin", Len: cfg.N}}},
		{N: cfg.N, Segments: []Segment{{Mode: "round-robin", Len: cfg.N}, {Mode: "reverse", Len: cfg.N}}},
	}
	for i := range cands {
		if i < len(canonical) && i < cfg.Pop {
			born++
			cands[i] = canonical[i]
			continue
		}
		cands[i] = fresh()
	}
	scores, err := ev.scoreBatch(cands, seeds, cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	for i, g := range cands {
		pop = append(pop, member{g: g, score: scores[i], born: i})
	}
	evals := len(cands)

	best := pop[0]
	for _, m := range pop[1:] {
		if fitter(m, best) {
			best = m
		}
	}

	tournament := func() *Genome {
		a, b := pop[genomeRng.Intn(len(pop))], pop[genomeRng.Intn(len(pop))]
		if fitter(b, a) {
			return b.g
		}
		return a.g
	}

	for evals < cfg.Budget {
		batch := cfg.Pop
		if rest := cfg.Budget - evals; batch > rest {
			batch = rest
		}
		children := make([]*Genome, batch)
		borns := make([]int, batch)
		for i := range children {
			if genomeRng.Float64() < cfg.RestartRate {
				children[i] = fresh()
			} else {
				born++
				children[i] = mutate(crossover(tournament(), tournament(), genomeRng), genomeRng, cfg.Faults)
			}
			borns[i] = born - 1
		}
		scores, err := ev.scoreBatch(children, seeds, cfg.Parallelism)
		if err != nil {
			return nil, err
		}
		evals += batch
		for i, g := range children {
			m := member{g: g, score: scores[i], born: borns[i]}
			pop = append(pop, m)
			if fitter(m, best) {
				best = m
			}
		}
		sort.SliceStable(pop, func(i, j int) bool { return fitter(pop[i], pop[j]) })
		pop = pop[:cfg.Pop]
	}

	// Shrink the winner: drop any genome component whose removal does not
	// reduce the evaluation-seed score.
	winner, shrinkEvals := shrinkGenome(ev, best.g, best.score.StepsMean, seeds, cfg.ShrinkBudget)
	evals += shrinkEvals
	finalScore, err := ev.score(winner, seeds, srcGenome)
	if err != nil {
		return nil, err
	}

	confirm := confirmSeeds(cfg.Seed, cfg.ConfirmTrials)
	confirmScore, err := ev.score(winner, confirm, srcGenome)
	if err != nil {
		return nil, err
	}
	whiteBox, err := ev.score(winner, confirm, srcWhiteBox)
	if err != nil {
		return nil, err
	}
	rr, err := ev.score(winner, confirm, srcRoundRobin)
	if err != nil {
		return nil, err
	}
	rnd, err := ev.score(winner, confirm, srcRandom)
	if err != nil {
		return nil, err
	}

	return &Result{
		Config:      cfg,
		Winner:      winner,
		Evaluations: evals,
		Score:       finalScore,
		Confirm:     confirmScore,
		WhiteBox:    whiteBox,
		Baselines:   map[string]Score{"round-robin": rr, "random": rnd},
	}, nil
}
