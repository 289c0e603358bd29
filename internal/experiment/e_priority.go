package experiment

import (
	"fmt"

	"github.com/oblivious-consensus/conciliator/internal/conciliator"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/stats"
)

// survivorTracker is a conciliator built with TrackSurvivors set.
type survivorTracker interface {
	Conciliate(p *sim.Proc, input int) int
	SurvivorsPerRound() []int
}

// survivorMeans runs trials of the conciliator mk builds on distinct
// inputs under random schedules and returns the mean excess personae X_i
// after each of the first `rounds` rounds.
func survivorMeans(p Params, n, rounds, trials int, master uint64, mk func() survivorTracker) []float64 {
	survivors := runTrials(p, seedsFor(master, trials), func(_ int, s trialSeeds) []int {
		c := mk()
		inputs := distinctInputs(n)
		mustRun(s.random(n), s.alg, func(pr *sim.Proc) int {
			return c.Conciliate(pr, inputs[pr.ID()])
		})
		return c.SurvivorsPerRound()
	})
	means := make([]float64, rounds)
	for _, surv := range survivors {
		for i := 0; i < rounds && i < len(surv); i++ {
			means[i] += float64(surv[i] - 1)
		}
	}
	for i := range means {
		means[i] /= float64(trials)
	}
	return means
}

// agreedTrials runs trials of the conciliator mk builds on distinct
// inputs under random schedules and returns in how many of them the
// finished processes agreed.
func agreedTrials(p Params, n, trials int, master uint64, mk func() conciliator.Interface[int]) int {
	agreed := runTrials(p, seedsFor(master, trials), func(_ int, s trialSeeds) bool {
		c := mk()
		inputs := distinctInputs(n)
		outs, fin, _ := mustRun(s.random(n), s.alg, func(pr *sim.Proc) int {
			return c.Conciliate(pr, inputs[pr.ID()])
		})
		return agree(outs, fin)
	})
	count := 0
	for _, ok := range agreed {
		if ok {
			count++
		}
	}
	return count
}

// e1PriorityDecay measures the per-round survivor decay of Algorithm 1
// against the Lemma 1 bound E[X_{i+1}] <= min(ln(X_i+1), X_i/2).
func e1PriorityDecay() Experiment {
	return Experiment{
		ID:    "E1",
		Title: "Algorithm 1 survivor decay per round",
		Claim: "Lemma 1: E[X_{i+1} | X_i] <= min(ln(X_i+1), X_i/2)",
		Run: func(p Params) []Table {
			p = p.withDefaults()
			trials := p.trials(20, 60)
			nsweep := p.ns([]int{16, 64}, []int{16, 64, 256, 1024})
			const rounds = 6

			tbl := Table{
				ID:      "E1",
				Title:   "mean excess personae X_i after round i (Algorithm 1)",
				Columns: []string{"n", "round i", "mean X_i", "Lemma 1 bound f^(i)(n-1)"},
				Notes: []string{
					"Measured means must lie below the iterated Lemma 1 bound " +
						"(up to sampling noise); the bound column iterates " +
						"f(x) = min(ln(x+1), x/2) from X_0 = n-1.",
				},
			}
			for _, n := range nsweep {
				means := survivorMeans(p, n, rounds, trials, p.Seed+1, func() survivorTracker {
					return conciliator.NewPriority[int](n, conciliator.PriorityConfig{
						Rounds:         rounds,
						TrackSurvivors: true,
					})
				})
				for i := 0; i < rounds; i++ {
					tbl.AddRow(n, i+1, means[i], stats.PriorityDecayBound(n, i+1))
				}
			}
			return []Table{tbl}
		},
	}
}

// e2PriorityAgreement measures Theorem 1's agreement probability 1-eps.
func e2PriorityAgreement() Experiment {
	return Experiment{
		ID:    "E2",
		Title: "Algorithm 1 agreement probability vs epsilon",
		Claim: "Theorem 1: agreement with probability >= 1-eps after log* n + ceil(log 1/eps) + 1 rounds",
		Run: func(p Params) []Table {
			p = p.withDefaults()
			trials := p.trials(40, 180)
			n := 64
			if p.Quick {
				n = 16
			}
			epsilons := []float64{0.5, 0.25, 1.0 / 16, 1.0 / 256}

			tbl := Table{
				ID:      "E2",
				Title:   fmt.Sprintf("agreement rate of Algorithm 1 (n=%d, distinct inputs)", n),
				Columns: []string{"epsilon", "rounds R", "agreement rate", "paper floor 1-eps"},
				Notes: []string{
					"The rate column must be at or above the floor. It is usually " +
						"far above it: the Lemma 1 analysis is pessimistic (it charges " +
						"any duplicate priority as a failure and bounds left-to-right " +
						"maxima loosely).",
				},
			}
			for _, eps := range epsilons {
				agreed := agreedTrials(p, n, trials, p.Seed+2+uint64(eps*1024), func() conciliator.Interface[int] {
					return conciliator.NewPriority[int](n, conciliator.PriorityConfig{Epsilon: eps})
				})
				rate, ci := stats.Proportion(agreed, trials)
				tbl.AddRow(eps, conciliator.PriorityRounds(n, eps), pct(rate, ci), 1-eps)
			}
			return []Table{tbl}
		},
	}
}

// e3PrioritySteps measures Theorem 1's O(log* n + log 1/eps) individual
// step complexity.
func e3PrioritySteps() Experiment {
	return Experiment{
		ID:    "E3",
		Title: "Algorithm 1 individual step complexity scaling",
		Claim: "Theorem 1: O(log* n + log(1/eps)) steps per process (2 per round)",
		Run: func(p Params) []Table {
			p = p.withDefaults()
			nsweep := p.ns([]int{4, 64, 1024}, []int{4, 16, 256, 4096, 16384})
			const eps = 0.5

			tbl := Table{
				ID:      "E3",
				Title:   "per-process steps of Algorithm 1 (eps = 1/2)",
				Columns: []string{"n", "log* n", "rounds R", "steps/process (measured)", "2R (predicted)"},
				Notes: []string{
					"Steps per process are deterministic (2 per round): the point " +
						"of the sweep is the log* n growth — 16x more processes cost " +
						"at most 2 more steps.",
				},
			}
			for _, n := range nsweep {
				c := conciliator.NewPriority[int](n, conciliator.PriorityConfig{Epsilon: eps})
				inputs := distinctInputs(n)
				s := seedsFor(p.Seed+3, 1)[0]
				_, _, res := mustRun(s.random(n), s.alg, func(pr *sim.Proc) int {
					return c.Conciliate(pr, inputs[pr.ID()])
				})
				tbl.AddRow(n, stats.LogStar(float64(n)), c.Rounds(), float64(res.MaxSteps()), 2*c.Rounds())
			}
			return []Table{tbl}
		},
	}
}
