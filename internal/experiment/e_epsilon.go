package experiment

import (
	"fmt"

	"github.com/oblivious-consensus/conciliator/internal/conciliator"
	"github.com/oblivious-consensus/conciliator/internal/stats"
)

// e16EpsilonNecessity measures the epsilon side of the bounds: the paper
// notes (after Theorem 2) that the log(1/eps) term is necessary by the
// Attiya–Censor-Hillel lower bound, so rounds must grow linearly in
// log(1/eps) while the realized disagreement probability tracks eps.
func e16EpsilonNecessity() Experiment {
	return Experiment{
		ID:    "E16",
		Title: "Epsilon dependence: rounds grow as log(1/eps), failures fall as eps",
		Claim: "Theorems 1-2 + Attiya–Censor-Hillel lower bound: Theta(log 1/eps) extra rounds buy disagreement probability eps, and that dependence is necessary",
		Run: func(p Params) []Table {
			p = p.withDefaults()
			trials := p.trials(60, 150)
			n := 64
			if p.Quick {
				n = 16
			}
			epsilons := []float64{0.5, 0.25, 0.125, 1.0 / 16, 1.0 / 64, 1.0 / 256}
			if p.Quick {
				epsilons = []float64{0.5, 0.125, 1.0 / 64}
			}

			tbl := Table{
				ID:    "E16",
				Title: fmt.Sprintf("Algorithm 2 rounds and failures vs epsilon (n=%d)", n),
				Columns: []string{
					"epsilon", "log2(1/eps)", "rounds R",
					"disagreement rate (measured)", "allowed (eps)",
				},
				Notes: []string{
					"Rounds grow linearly in log(1/eps) (slope about " +
						"1/log2(4/3) = 2.41 per bit); measured disagreement stays " +
						"at or below eps. The lower bound says no protocol can " +
						"avoid paying rounds for epsilon — only the loglog n part " +
						"is potentially improvable (the paper's open question).",
				},
			}
			var xs, ys []float64
			for ei, eps := range epsilons {
				disagree := trials - agreedTrials(p, n, trials, p.Seed+19+uint64(ei), func() conciliator.Interface[int] {
					return conciliator.NewSifter[int](n, conciliator.SifterConfig{Epsilon: eps})
				})
				rate, ci := stats.Proportion(disagree, trials)
				rounds := conciliator.SifterRounds(n, eps)
				bits := stats.Log2(1 / eps)
				xs = append(xs, bits)
				ys = append(ys, float64(rounds))
				tbl.AddRow(eps, bits, rounds, pct(rate, ci), eps)
			}
			_, slope := stats.LinearFit(xs, ys)
			tbl.Notes = append(tbl.Notes,
				fmt.Sprintf("Fitted rounds-per-bit slope: %.2f (theory: 1/log2(4/3) = 2.41).", slope))
			return []Table{tbl}
		},
	}
}
