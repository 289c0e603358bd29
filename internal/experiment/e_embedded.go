package experiment

import (
	"github.com/oblivious-consensus/conciliator/internal/conciliator"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/stats"
)

// e7Embedded measures Theorem 3: Algorithm 3's agreement probability
// (>= 1/8), worst-case individual steps (O(log log n)), and expected
// total steps (O(n)), against the plain sifter's Theta(n log log n)
// total.
func e7Embedded() Experiment {
	return Experiment{
		ID:    "E7",
		Title: "Algorithm 3: linear expected total work",
		Claim: "Theorem 3: agreement >= 1/8, O(log log n) worst-case individual steps, O(n) expected total steps",
		Run: func(p Params) []Table {
			p = p.withDefaults()
			trials := p.trials(20, 50)
			nsweep := p.ns([]int{16, 64}, []int{16, 64, 256, 1024})

			main := Table{
				ID:    "E7a",
				Title: "Algorithm 3 vs plain Algorithm 2 (distinct inputs)",
				Columns: []string{
					"n", "agreement rate", "floor 1/8",
					"total steps / n (Alg 3)", "total steps / n (Alg 2)",
					"max individual steps (Alg 3)", "step bound",
				},
				Notes: []string{
					"Total steps per process of Algorithm 3 must stay O(1) as n " +
						"grows, while the plain sifter pays Theta(log log n + " +
						"log(1/eps)) per process in every execution. 'Who wins': " +
						"Algorithm 3 on total work, with the same O(log log n) " +
						"worst-case individual bound.",
				},
			}
			exits := Table{
				ID:      "E7b",
				Title:   "Algorithm 3 exit paths (fractions of processes)",
				Columns: []string{"n", "completed sifter", "read proposal", "wrote proposal"},
			}

			// embeddedTrial is one trial's Algorithm 3 and plain-sifter
			// accounting.
			type embeddedTrial struct {
				agreed                   bool
				totalEmb, totalSift      int64
				maxIndividual            int64
				exitSift, exitRd, exitWr int64
			}
			for _, n := range nsweep {
				stepBound := conciliator.NewEmbedded[int](n, conciliator.EmbeddedConfig{}).StepBound()
				perTrial := runTrials(p, seedsFor(p.Seed+8, trials), func(_ int, s trialSeeds) embeddedTrial {
					inputs := distinctInputs(n)

					emb := conciliator.NewEmbedded[int](n, conciliator.EmbeddedConfig{})
					outs, fin, resEmb := mustRun(s.random(n), s.alg, func(pr *sim.Proc) int {
						return emb.Conciliate(pr, inputs[pr.ID()])
					})

					sift := conciliator.NewSifter[int](n, conciliator.SifterConfig{Epsilon: 0.25})
					_, _, resSift := mustRun(s.random(n), s.alg, func(pr *sim.Proc) int {
						return sift.Conciliate(pr, inputs[pr.ID()])
					})

					tr := embeddedTrial{
						agreed:        agree(outs, fin),
						totalEmb:      resEmb.TotalSteps,
						totalSift:     resSift.TotalSteps,
						maxIndividual: resEmb.MaxSteps(),
					}
					tr.exitSift, tr.exitRd, tr.exitWr = emb.ExitCounts()
					return tr
				})
				var (
					agreed                     int
					totalEmb, totalSift        float64
					maxIndividual              int64
					sumSift, sumRead, sumWrite int64
				)
				for _, tr := range perTrial {
					if tr.agreed {
						agreed++
					}
					totalEmb += float64(tr.totalEmb)
					totalSift += float64(tr.totalSift)
					maxIndividual = max(maxIndividual, tr.maxIndividual)
					sumSift += tr.exitSift
					sumRead += tr.exitRd
					sumWrite += tr.exitWr
				}
				rate, ci := stats.Proportion(agreed, trials)
				den := float64(trials) * float64(n)
				main.AddRow(n, pct(rate, ci), 1.0/8,
					totalEmb/den, totalSift/den,
					float64(maxIndividual), stepBound)
				exits.AddRow(n, float64(sumSift)/den, float64(sumRead)/den, float64(sumWrite)/den)
			}
			return []Table{main, exits}
		},
	}
}
