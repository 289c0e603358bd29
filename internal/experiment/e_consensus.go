package experiment

import (
	"fmt"

	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/stats"
)

// e8Consensus measures the three corollaries end to end: full consensus
// built from each conciliator, with the CIL-only construction as the
// pre-paper baseline.
func e8Consensus() Experiment {
	return Experiment{
		ID:    "E8",
		Title: "Full consensus: expected individual steps and phases",
		Claim: "Corollaries 1-3: O(log* n) (snapshot), O(log log n + AC) (register), same + O(n) total (linear); baseline Theta(n)",
		Run: func(p Params) []Table {
			p = p.withDefaults()
			trials := p.trials(10, 25)
			nsweep := p.ns([]int{8, 32}, []int{8, 32, 128, 512})

			protocols := []struct {
				name string
				mk   func(n int) *consensus.Protocol[int]
			}{
				{name: "snapshot (Cor 1)", mk: consensus.NewSnapshot[int]},
				{name: "register (Cor 2)", mk: consensus.NewRegister[int]},
				{name: "linear (Cor 3)", mk: consensus.NewLinear[int]},
				{name: "cil-baseline", mk: consensus.NewCILBaseline[int]},
			}

			steps := Table{
				ID:      "E8a",
				Title:   "mean steps per process (id-consensus, uniform random adversary)",
				Columns: []string{"n", "snapshot (Cor 1)", "register (Cor 2)", "linear (Cor 3)", "cil-baseline"},
				Notes: []string{
					"Mean per-process cost is near-flat for every construction " +
						"under a uniform schedule — including the baseline, whose " +
						"4n expected spin iterations are spread over n processes. " +
						"The baseline's weakness is its schedule-dependence, " +
						"exposed in E8d. Agreement and validity are asserted on " +
						"every trial.",
				},
			}
			phases := Table{
				ID:      "E8b",
				Title:   "mean phases until commit",
				Columns: []string{"n", "snapshot (Cor 1)", "register (Cor 2)", "linear (Cor 3)", "cil-baseline"},
				Notes:   []string{"Expected phases is O(1) for all constructions."},
			}
			total := Table{
				ID:      "E8c",
				Title:   "mean of worst-case individual steps (uniform random adversary)",
				Columns: []string{"n", "snapshot (Cor 1)", "register (Cor 2)", "linear (Cor 3)", "cil-baseline"},
				Notes: []string{
					"The slowest process per execution, averaged over trials. " +
						"Under a uniform schedule even the baseline looks cheap — " +
						"the 4n spin iterations are spread over n processes. The " +
						"adversary-sensitivity table E8d is where the baseline " +
						"loses.",
				},
			}
			skew := Table{
				ID:      "E8d",
				Title:   "mean of worst-case individual steps (favored-process adversary)",
				Columns: []string{"n", "snapshot (Cor 1)", "register (Cor 2)", "linear (Cor 3)", "cil-baseline"},
				Notes: []string{
					"A skewed oblivious schedule hands every other slot to one " +
						"favored process. The paper constructions have schedule-" +
						"independent per-process step bounds, so their columns " +
						"match E8c; the CIL baseline's favored process must spin " +
						"through Theta(n) read iterations alone before anyone " +
						"proposes — the reason plain CIL does not give sublinear " +
						"individual-step consensus and Algorithm 3's embedding is " +
						"needed.",
				},
			}

			for _, n := range nsweep {
				stepCells := []any{n}
				phaseCells := []any{n}
				totalCells := []any{n}
				skewCells := []any{n}
				for pi, proto := range protocols {
					// Per trial: mean steps per process, mean phases, and
					// the slowest process's steps under the uniform and
					// the favored-process schedule.
					perTrial := runTrials(p, seedsFor(p.Seed+9+uint64(pi), trials), func(t int, s trialSeeds) [4]float64 {
						inputs := distinctInputs(n)
						run := func(src sched.Source, under string) (*consensus.Protocol[int], sim.Result) {
							c := proto.mk(n) // fresh object: single-use
							outs, fin, res := mustRun(src, s.alg, func(pr *sim.Proc) int {
								return c.Propose(pr, inputs[pr.ID()])
							})
							if !agree(outs, fin) {
								panic(fmt.Sprintf("consensus %s violated agreement%s (n=%d trial=%d)", proto.name, under, n, t))
							}
							return c, res
						}
						c, res := run(s.random(n), "")
						_, resS := run(sched.NewFavored(n), " under skew")
						return [4]float64{
							float64(res.TotalSteps) / float64(n),
							c.MeanPhases(),
							float64(res.MaxSteps()),
							float64(resS.MaxSteps()),
						}
					})
					var sums [4]float64
					for _, tr := range perTrial {
						for i, v := range tr {
							sums[i] += v
						}
					}
					stepCells = append(stepCells, sums[0]/float64(trials))
					phaseCells = append(phaseCells, sums[1]/float64(trials))
					totalCells = append(totalCells, sums[2]/float64(trials))
					skewCells = append(skewCells, sums[3]/float64(trials))
				}
				steps.AddRow(stepCells...)
				phases.AddRow(phaseCells...)
				total.AddRow(totalCells...)
				skew.AddRow(skewCells...)
			}

			// Annotate growth exponents (slope of log steps vs log n) for
			// both the uniform and the skew-adversary tables.
			steps.Notes = append(steps.Notes, growthNote(steps, nsweep))
			skew.Notes = append(skew.Notes, growthNote(skew, nsweep))
			return []Table{steps, phases, total, skew}
		},
	}
}

// growthNote summarizes the growth exponents of the per-process step
// columns (slope of log steps vs log n): ~0 means constant, ~1 linear.
func growthNote(tbl Table, nsweep []int) string {
	if len(tbl.Rows) < 2 {
		return ""
	}
	xs := make([]float64, len(nsweep))
	for i, n := range nsweep {
		xs[i] = stats.Log2(float64(n))
	}
	note := "Growth exponents (slope of log2 steps vs log2 n):"
	for col := 1; col < len(tbl.Columns); col++ {
		ys := make([]float64, len(tbl.Rows))
		for r, row := range tbl.Rows {
			var v float64
			fmt.Sscanf(row[col], "%g", &v)
			ys[r] = stats.Log2(v)
		}
		_, b := stats.LinearFit(xs, ys)
		note += fmt.Sprintf(" %s=%.2f;", tbl.Columns[col], b)
	}
	return note
}
