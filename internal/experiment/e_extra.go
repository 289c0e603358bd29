package experiment

import (
	"fmt"
	"math"

	"github.com/oblivious-consensus/conciliator/internal/attack"
	"github.com/oblivious-consensus/conciliator/internal/conciliator"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/stats"
)

// e13Multiplicity measures how the round complexity tracks the number of
// *distinct inputs* m rather than the number of processes n: the paper's
// analyses start from X_0 = (distinct personae) - 1, so fewer distinct
// values should mean fewer effective rounds of work.
func e13Multiplicity() Experiment {
	return Experiment{
		ID:    "E13",
		Title: "Distinct-input multiplicity: X_0 = m-1, not n-1",
		Claim: "Sections 2-3: the decay analyses are driven by the number of distinct personae entering each round",
		Run: func(p Params) []Table {
			p = p.withDefaults()
			trials := p.trials(20, 60)
			n := 256
			if p.Quick {
				n = 32
			}
			ms := []int{2, 4, 16, 64, n}
			if p.Quick {
				ms = []int{2, 8, n}
			}

			tbl := Table{
				ID:      "E13",
				Title:   fmt.Sprintf("Algorithm 2 survivors after rounds 1 and 2 by input multiplicity (n=%d)", n),
				Columns: []string{"distinct inputs m", "mean X_1", "mean X_2", "bound from m: 2*sqrt(m-1)"},
				Notes: []string{
					"Processes share only m distinct input values. Distinct " +
						"personae still start at n (each process draws its own " +
						"coins), but distinct *values* collapse at the rate driven " +
						"by the persona count; the table reports distinct values " +
						"held after each round, which is what consensus cares " +
						"about, and compares with the m-driven bound.",
				},
			}
			for _, m := range ms {
				// Per trial: distinct values held after rounds 1 and 2,
				// less one.
				perTrial := runTrials(p, seedsFor(p.Seed+16+uint64(m), trials), func(_ int, s trialSeeds) [2]int {
					c := conciliator.NewSifter[int](n, conciliator.SifterConfig{
						Rounds:         2,
						TrackSurvivors: true,
					})
					inputs := make([]int, n)
					for i := range inputs {
						inputs[i] = i % m
					}
					holders := make([][]int, 2)
					for r := range holders {
						holders[r] = make([]int, n)
					}
					mustRun(s.random(n), s.alg, func(pr *sim.Proc) int {
						run := c.Begin(pr, inputs[pr.ID()])
						r := 0
						for !run.Done() {
							run.Step(pr)
							if r < 2 {
								holders[r][pr.ID()] = run.Persona().Value()
							}
							r++
						}
						return run.Persona().Value()
					})
					var excess [2]int
					for r, held := range holders {
						set := make(map[int]struct{})
						for _, v := range held {
							set[v] = struct{}{}
						}
						excess[r] = len(set) - 1
					}
					return excess
				})
				var sum1, sum2 int
				for _, x := range perTrial {
					sum1 += x[0]
					sum2 += x[1]
				}
				bound := 2 * math.Sqrt(float64(m-1))
				tbl.AddRow(m, float64(sum1)/float64(trials), float64(sum2)/float64(trials), bound)
			}
			return []Table{tbl}
		},
	}
}

// e14Adversary is the negative control for the oblivious-adversary
// assumption: a coin-aware adversary (it knows the algorithm seed)
// schedules all readers before all writers in every sifting round,
// freezing the persona set.
func e14Adversary() Experiment {
	return Experiment{
		ID:    "E14",
		Title: "Strength of the adversary: coin-aware schedules defeat Algorithm 2",
		Claim: "Section 5: the algorithms require (at least) a content-oblivious weak adversary; leaking the coins to the adversary breaks them",
		Run: func(p Params) []Table {
			p = p.withDefaults()
			trials := p.trials(20, 60)
			n := 64
			if p.Quick {
				n = 16
			}

			tbl := Table{
				ID:      "E14",
				Title:   fmt.Sprintf("Algorithm 2 under oblivious vs coin-aware adversaries (n=%d)", n),
				Columns: []string{"adversary", "agreement rate", "mean distinct outputs"},
				Notes: []string{
					"The bit-leak adversary schedules every round's readers " +
						"before its writers, so no reader ever sees a non-empty " +
						"register and every process keeps its original persona: " +
						"agreement probability 0, all n values survive. The " +
						"writers-first adversary is the benign mirror image. The " +
						"oblivious adversary cannot tell readers from writers, " +
						"which is exactly why Theorem 2's bound stands.",
				},
			}
			// row adds one adversary's agreement rate and mean distinct
			// outputs to t; src picks the trial's schedule.
			row := func(t *Table, kind string, master uint64, mk func() conciliator.Interface[int], src func(s trialSeeds) sched.Source) {
				type outcome struct {
					agreed   bool
					distinct int
				}
				perTrial := runTrials(p, seedsFor(master, trials), func(_ int, s trialSeeds) outcome {
					c := mk()
					inputs := distinctInputs(n)
					outs, fin, _ := mustRun(src(s), s.alg, func(pr *sim.Proc) int {
						return c.Conciliate(pr, inputs[pr.ID()])
					})
					set := make(map[int]struct{})
					for i, o := range outs {
						if fin[i] {
							set[o] = struct{}{}
						}
					}
					return outcome{agreed: agree(outs, fin), distinct: len(set)}
				})
				agreed, distinct := 0, 0
				for _, o := range perTrial {
					if o.agreed {
						agreed++
					}
					distinct += o.distinct
				}
				rate, ci := stats.Proportion(agreed, trials)
				t.AddRow(kind, pct(rate, ci), float64(distinct)/float64(trials))
			}
			random := func(s trialSeeds) sched.Source { return s.random(n) }

			sifter := func() conciliator.Interface[int] {
				return conciliator.NewSifter[int](n, conciliator.SifterConfig{})
			}
			row(&tbl, "oblivious random", p.Seed+17, sifter, random)
			row(&tbl, "coin-aware readers-first (attack)", p.Seed+18, sifter, func(s trialSeeds) sched.Source {
				return attack.SifterBitLeakSchedule(n, s.alg, 0.5)
			})
			row(&tbl, "coin-aware writers-first", p.Seed+19, sifter, func(s trialSeeds) sched.Source {
				return attack.WritersFirstSchedule(n, s.alg, 0.5)
			})

			tbl1 := Table{
				ID:      "E14b",
				Title:   fmt.Sprintf("Algorithm 1 under oblivious vs priority-leak adversaries (n=%d)", n),
				Columns: []string{"adversary", "agreement rate", "mean distinct outputs"},
				Notes: []string{
					"The priority-leak adversary orders each round's processes " +
						"by ascending priority, update-then-scan back to back, so " +
						"every scan shows its own persona as the maximum and no " +
						"process ever adopts: the same freeze as the Algorithm 2 " +
						"attack, through a different mechanism.",
				},
			}
			priority := func() conciliator.Interface[int] {
				return conciliator.NewPriority[int](n, conciliator.PriorityConfig{})
			}
			row(&tbl1, "oblivious random", p.Seed+23, priority, random)
			row(&tbl1, "coin-aware priority-leak (attack)", p.Seed+24, priority, func(s trialSeeds) sched.Source {
				return attack.PriorityLeakSchedule(n, s.alg, 0.5)
			})
			return []Table{tbl, tbl1}
		},
	}
}
