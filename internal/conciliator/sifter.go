package conciliator

import (
	"math"

	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/persona"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/stats"
)

// SifterConfig parameterizes Algorithm 2.
type SifterConfig struct {
	// Epsilon is the target disagreement probability (default 1/2). The
	// round count is R = ceil(log log n) + ceil(log_{4/3}(8/Epsilon)).
	Epsilon float64

	// Rounds overrides R when positive.
	Rounds int

	// Probs overrides the per-round write probabilities p_i (1-indexed
	// p_1 is Probs[0]); used by ablation E11a (constant 1/2 instead of
	// the tuned schedule). When shorter than the round count, the last
	// entry repeats.
	Probs []float64

	// SharePersonae, when false, draws each round's write/read choice
	// from the carrying process's own stream instead of the persona's
	// pre-drawn bits (ablation E11b).
	SharePersonae *bool

	// TrackSurvivors enables per-round distinct-persona accounting.
	TrackSurvivors bool
}

func (c SifterConfig) withDefaults() SifterConfig {
	if c.Epsilon <= 0 || c.Epsilon >= 1 {
		c.Epsilon = 0.5
	}
	if c.SharePersonae == nil {
		share := true
		c.SharePersonae = &share
	}
	return c
}

// SifterRounds returns the paper's round count for Algorithm 2:
// R = ceil(log log n) + ceil(log_{4/3}(8/eps)) (Theorem 2).
func SifterRounds(n int, epsilon float64) int {
	return stats.CeilLogLog(n) + stats.CeilLogBase(4.0/3.0, 8/epsilon)
}

// SifterProbs returns the tuned write-probability schedule for the first
// ceil(log log n) rounds, then 1/2:
//
//	p_i = 1/sqrt(x_{i-1}) = 2^(2^(1-i)-1) * (n-1)^(-2^(-i))
//
// which is the choice that minimizes the Lemma 2 bound
// p x + 1/p at x = x_{i-1}. Note the paper's displayed equation (3)
// reads 2^(1-2^(1-i)) (n-1)^(-2^(-i)); the power-of-two exponent there
// appears to carry a sign typo — the displayed form disagrees with
// p_{i} = 1/sqrt(x_{i-1}) for every i >= 2 and tends to 2 rather than a
// probability, whereas the derived form used here tends to exactly the
// 1/2 used after the tuned prefix and reproduces the Lemma 3 decay (see
// EXPERIMENTS.md E4, which fails under the displayed form and passes
// under this one).
//
// For n <= 2 the tuned prefix is empty (every round uses 1/2).
func SifterProbs(n, rounds int) []float64 {
	probs := make([]float64, rounds)
	tuned := stats.CeilLogLog(n)
	for i := range probs {
		r := i + 1 // 1-indexed round
		if r <= tuned && n > 2 {
			e := math.Pow(2, float64(-r))
			probs[i] = math.Pow(2, 2*e-1) * math.Pow(float64(n-1), -e)
			if probs[i] > 1 {
				probs[i] = 1
			}
		} else {
			probs[i] = 0.5
		}
	}
	return probs
}

// Sifter is Algorithm 2: the register-based sifting conciliator. One
// multi-writer register per round; in round i a persona either writes
// itself (probability p_i, pre-drawn into the persona) or reads and
// adopts whatever it finds.
type Sifter[V comparable] struct {
	n      int
	rounds int
	cfg    SifterConfig
	probs  []float64
	regs   *memory.RegisterArray[*persona.Persona[V]]
	track  *tracker[V]
}

var (
	_ Interface[int] = (*Sifter[int])(nil)
	_ Stepwise[int]  = (*Sifter[int])(nil)
)

// NewSifter returns an Algorithm 2 instance for n processes.
func NewSifter[V comparable](n int, cfg SifterConfig) *Sifter[V] {
	cfg = cfg.withDefaults()
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = SifterRounds(n, cfg.Epsilon)
	}
	if rounds < 1 {
		rounds = 1
	}
	probs := SifterProbs(n, rounds)
	if len(cfg.Probs) > 0 {
		for i := range probs {
			if i < len(cfg.Probs) {
				probs[i] = cfg.Probs[i]
			} else {
				probs[i] = cfg.Probs[len(cfg.Probs)-1]
			}
		}
	}
	return &Sifter[V]{
		n:      n,
		rounds: rounds,
		cfg:    cfg,
		probs:  probs,
		regs:   memory.NewRegisterArray[*persona.Persona[V]](rounds),
		track:  newTracker[V](rounds, n, cfg.TrackSurvivors),
	}
}

// Rounds returns the number of rounds R the instance will execute.
func (c *Sifter[V]) Rounds() int { return c.rounds }

// Probs returns the per-round write probabilities in use.
func (c *Sifter[V]) Probs() []float64 {
	out := make([]float64, len(c.probs))
	copy(out, c.probs)
	return out
}

// StepBound implements Interface: exactly one register operation per
// round.
func (c *Sifter[V]) StepBound() int { return c.rounds }

// SurvivorsPerRound returns, after an execution with TrackSurvivors, the
// number of distinct personae held at the end of each round.
func (c *Sifter[V]) SurvivorsPerRound() []int { return c.track.survivors() }

// Reset clears the round registers so a fresh set of processes can use
// the instance, and reports whether it could: an instance with
// TrackSurvivors keeps per-run survivor tallies and is not resettable.
// No Conciliate may be in flight (see memory.Register.Reset).
func (c *Sifter[V]) Reset() bool {
	if c.cfg.TrackSurvivors {
		return false
	}
	c.regs.Reset()
	return true
}

// Conciliate implements Interface.
func (c *Sifter[V]) Conciliate(p *sim.Proc, input V) V {
	before := p.Steps()
	v := conciliate[V](c, p, input)
	mSifProc.Observe(p.Steps() - before)
	return v
}

// Begin implements Stepwise.
func (c *Sifter[V]) Begin(p *sim.Proc, input V) Run[V] {
	return &sifterRun[V]{
		c:    c,
		pers: persona.New(input, p.ID(), p.Rng(), persona.Config{WriteProbs: c.probs}),
	}
}

type sifterRun[V comparable] struct {
	c    *Sifter[V]
	pers *persona.Persona[V]
	i    int
}

func (r *sifterRun[V]) Done() bool                   { return r.i >= r.c.rounds }
func (r *sifterRun[V]) Persona() *persona.Persona[V] { return r.pers }

// Step executes one sifting round: exactly one read or write of r_i.
func (r *sifterRun[V]) Step(p *sim.Proc) {
	if r.Done() {
		return
	}
	i := r.i
	c := r.c

	write := r.pers.WriteBit(i)
	if !*c.cfg.SharePersonae {
		// Ablation: the carrying process flips its own coin, so two
		// carriers of one persona can act differently.
		write = p.Rng().Bernoulli(c.probs[i])
	}
	if write {
		c.regs.At(i).Write(p, r.pers)
		mSifWrite.Inc()
	} else {
		if v, ok := c.regs.At(i).Read(p); ok {
			r.pers = v
		}
		mSifRead.Inc()
	}

	c.track.record(i, p.ID(), r.pers)
	r.i++
}
