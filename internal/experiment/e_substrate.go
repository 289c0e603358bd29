package experiment

import (
	"fmt"

	"github.com/oblivious-consensus/conciliator/internal/conciliator"
	"github.com/oblivious-consensus/conciliator/internal/sim"
)

// e15Substrate prices the paper's unit-cost snapshot assumption by
// running Algorithm 1 on four substrates that all satisfy its interface:
// the unit-cost snapshot (the paper's model), the unit-cost max register
// (footnote 1), the tree max register built from registers, and the
// Afek-et-al. snapshot built from registers.
func e15Substrate() Experiment {
	return Experiment{
		ID:    "E15",
		Title: "Cost of the unit-cost snapshot assumption",
		Claim: "Section 2 footnotes: Algorithm 1 needs only max registers; snapshots are constructible from registers at higher cost",
		Run: func(p Params) []Table {
			p = p.withDefaults()
			nsweep := p.ns([]int{8, 32}, []int{8, 32, 64})

			tbl := Table{
				ID:    "E15",
				Title: "Algorithm 1 steps per process by substrate (eps = 1/2)",
				Columns: []string{
					"n", "unit snapshot", "unit max register",
					"tree max register (registers)", "Afek snapshot (registers)",
				},
				Notes: []string{
					"All four substrates run the identical Algorithm 1 code and " +
						"agree with the same probability; only the charged step " +
						"counts differ. The unit-cost columns stay at 2 steps/round " +
						"(log*-driven); the register-built substrates pay " +
						"Theta(log range) and Theta(n) factors respectively — the " +
						"gap is what 'practically irrelevant but theoretically " +
						"significant' refers to in the conclusions.",
				},
			}
			configs := []conciliator.PriorityConfig{
				{},
				{UseMaxRegisters: true},
				{UseMaxRegisters: true, TreeMax: true},
				{UseAfekSnapshot: true},
			}
			for _, n := range nsweep {
				row := []any{n}
				for ci, cfg := range configs {
					c := conciliator.NewPriority[int](n, cfg)
					inputs := distinctInputs(n)
					s := seedsFor(p.Seed+18+uint64(ci), 1)[0]
					_, _, res := mustRun(s.random(n), s.alg, func(pr *sim.Proc) int {
						return c.Conciliate(pr, inputs[pr.ID()])
					})
					row = append(row, float64(res.TotalSteps)/float64(n))
					if res.MaxSteps() > int64(c.StepBound()) {
						panic(fmt.Sprintf("substrate %d exceeded StepBound: %d > %d", ci, res.MaxSteps(), c.StepBound()))
					}
				}
				tbl.AddRow(row...)
			}
			return []Table{tbl}
		},
	}
}
