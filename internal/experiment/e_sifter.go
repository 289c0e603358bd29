package experiment

import (
	"fmt"
	"math"

	"github.com/oblivious-consensus/conciliator/internal/conciliator"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/stats"
)

// e4SifterDecay measures Algorithm 2's doubly-exponential survivor decay
// against the closed form x_i of equation (2) and Lemma 3.
func e4SifterDecay() Experiment {
	return Experiment{
		ID:    "E4",
		Title: "Algorithm 2 survivor decay per round",
		Claim: "Lemma 3: E[X_i] <= x_i = 2^(2-2^(1-i)) (n-1)^(2^-i); x_{ceil(loglog n)} < 8",
		Run: func(p Params) []Table {
			p = p.withDefaults()
			trials := p.trials(20, 60)
			nsweep := p.ns([]int{16, 64}, []int{16, 64, 256, 1024})

			tbl := Table{
				ID:      "E4",
				Title:   "mean excess personae X_i after round i (Algorithm 2, tuned p_i)",
				Columns: []string{"n", "round i", "mean X_i", "bound x_i"},
				Notes: []string{
					"Rounds shown up to ceil(log log n) + 1; the bound column is " +
						"equation (2). Lemma 3 requires mean <= bound, and the bound " +
						"at round ceil(log log n) is below 8 for every n.",
				},
			}
			for _, n := range nsweep {
				tuned := stats.CeilLogLog(n) + 1
				means := survivorMeans(p, n, tuned, trials, p.Seed+4, func() survivorTracker {
					return conciliator.NewSifter[int](n, conciliator.SifterConfig{Rounds: tuned, TrackSurvivors: true})
				})
				for i := 0; i < tuned; i++ {
					bound := stats.SifterDecayBound(n, i+1)
					if i+1 > stats.CeilLogLog(n) {
						// Beyond the tuned prefix Lemma 4's geometric decay
						// applies instead.
						bound = 8 * math.Pow(0.75, float64(i+1-stats.CeilLogLog(n)))
					}
					tbl.AddRow(n, i+1, means[i], bound)
				}
			}
			return []Table{tbl}
		},
	}
}

// e5SifterEpsilon measures Lemma 4's geometric tail and Theorem 2's
// agreement probability.
func e5SifterEpsilon() Experiment {
	return Experiment{
		ID:    "E5",
		Title: "Algorithm 2 geometric tail and agreement probability",
		Claim: "Lemma 4: E[X_{ceil(loglog n)+j}] <= 8 (3/4)^j; Theorem 2: agreement >= 1-eps",
		Run: func(p Params) []Table {
			p = p.withDefaults()
			trials := p.trials(40, 180)
			n := 256
			if p.Quick {
				n = 32
			}

			tail := Table{
				ID:      "E5a",
				Title:   fmt.Sprintf("post-sift geometric tail (n=%d)", n),
				Columns: []string{"j (rounds past ceil(loglog n))", "mean X", "Lemma 4 bound 8*(3/4)^j"},
			}
			loglog := stats.CeilLogLog(n)
			extra := 12
			if p.Quick {
				extra = 6
			}
			means := survivorMeans(p, n, loglog+extra, trials, p.Seed+5, func() survivorTracker {
				return conciliator.NewSifter[int](n, conciliator.SifterConfig{Rounds: loglog + extra, TrackSurvivors: true})
			})
			// means[i] is E[X] after round i+1; j rounds past the tuned
			// prefix is round loglog+j.
			for j := 0; j < extra; j++ {
				tail.AddRow(j, means[loglog+j-1], 8*math.Pow(0.75, float64(j)))
			}

			agreeTbl := Table{
				ID:      "E5b",
				Title:   fmt.Sprintf("agreement rate of Algorithm 2 (n=%d)", n),
				Columns: []string{"epsilon", "rounds R", "agreement rate", "paper floor 1-eps"},
			}
			for _, eps := range []float64{0.5, 0.25, 1.0 / 16} {
				agreed := agreedTrials(p, n, trials, p.Seed+6+uint64(eps*1024), func() conciliator.Interface[int] {
					return conciliator.NewSifter[int](n, conciliator.SifterConfig{Epsilon: eps})
				})
				rate, ci := stats.Proportion(agreed, trials)
				agreeTbl.AddRow(eps, conciliator.SifterRounds(n, eps), pct(rate, ci), 1-eps)
			}
			return []Table{tail, agreeTbl}
		},
	}
}

// e6SifterSteps measures Theorem 2's O(log log n + log 1/eps) individual
// step complexity.
func e6SifterSteps() Experiment {
	return Experiment{
		ID:    "E6",
		Title: "Algorithm 2 individual step complexity scaling",
		Claim: "Theorem 2: O(log log n + log(1/eps)) steps per process (1 per round)",
		Run: func(p Params) []Table {
			p = p.withDefaults()
			nsweep := p.ns([]int{4, 64, 1024}, []int{4, 16, 256, 4096, 16384})
			const eps = 0.5

			tbl := Table{
				ID:      "E6",
				Title:   "per-process steps of Algorithm 2 (eps = 1/2)",
				Columns: []string{"n", "ceil(loglog n)", "rounds R", "steps/process (measured)", "R (predicted)"},
				Notes: []string{
					"One register operation per round; growth across the sweep is " +
						"the ceil(log log n) term only.",
				},
			}
			for _, n := range nsweep {
				c := conciliator.NewSifter[int](n, conciliator.SifterConfig{Epsilon: eps})
				inputs := distinctInputs(n)
				s := seedsFor(p.Seed+7, 1)[0]
				_, _, res := mustRun(s.random(n), s.alg, func(pr *sim.Proc) int {
					return c.Conciliate(pr, inputs[pr.ID()])
				})
				tbl.AddRow(n, stats.CeilLogLog(n), c.Rounds(), float64(res.MaxSteps()), c.Rounds())
			}
			return []Table{tbl}
		},
	}
}
