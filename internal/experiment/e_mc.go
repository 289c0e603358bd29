package experiment

import (
	"fmt"

	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/stats"
)

// ihQCI renders an IntHist QuantileCI triple as "v [lo, hi]".
func ihQCI(h *stats.IntHist, q float64) string {
	v, lo, hi := h.QuantileCI(q)
	return fmt.Sprintf("%d [%d, %d]", v, lo, hi)
}

// e20MonteCarlo is the flat-engine Monte Carlo quantile experiment:
// million-trial step distributions of the full consensus protocols,
// aggregated through streaming integer histograms so the tail quantiles
// (p99, p999, max) carry order-statistic confidence intervals instead of
// the handful-of-trials noise the coroutine-engine experiments tolerate.
// Byte-identical identity of the flat engine with the coroutine engine
// is pinned separately (internal/consensus flat tests), so the volume
// here is pure statistical power.
func e20MonteCarlo() Experiment {
	type cell struct {
		conc string
		ac   string
	}
	cells := []cell{
		{consensus.ConcSifter, consensus.ACRegister},
		{consensus.ConcSifterHalf, consensus.ACRegister},
		{consensus.ConcPriorityMax, consensus.ACSnapshot},
	}
	return Experiment{
		ID:    "E20",
		Title: "Flat-engine Monte Carlo: consensus step quantiles at scale",
		Claim: "Corollaries 1-2: expected individual steps O(log log n + AC) (sifter) vs O(log n) (constant-p) vs O(log* n) (priority, unit-cost snapshots); tails concentrate",
		Run: func(p Params) []Table {
			p = p.withDefaults()
			ns := p.ns([]int{8, 16}, []int{16, 64, 256})
			t := Table{
				ID:    "E20",
				Title: "per-process steps to decide, random oblivious schedule",
				Columns: []string{"n", "conciliator", "AC", "trials", "agree",
					"mean", "p50", "p90", "p99 [95% CI]", "p999 [95% CI]", "max", "phases p99", "phases max"},
				Notes: []string{
					"Quantiles are exact nearest-rank values over n_procs x trials individual step counts,",
					"aggregated by streaming integer histograms (stats.IntHist); [lo, hi] are distribution-free",
					"order-statistic ~95% CIs. Trials run on the flat state-machine engine (sim.RunFlat), whose",
					"byte-identity with the coroutine engine is enforced by the internal/consensus identity tests.",
				},
			}
			for _, n := range ns {
				// Per-trial cost grows with n; shrink the trial count so
				// every cell costs about the same wall-clock.
				trials := int64(p.trials(48, 1_000_000) * 16 / n)
				if trials < 1 {
					trials = 1
				}
				for ci, c := range cells {
					res, err := consensus.RunMonteCarlo(consensus.MCConfig{
						N:       n,
						Trials:  trials,
						Flat:    consensus.FlatConfig{Conciliator: c.conc, AC: c.ac},
						Sched:   sched.KindRandom,
						Seed:    p.Seed + uint64(1000*n+ci),
						Workers: p.Parallelism,
					})
					if err != nil {
						panic(fmt.Sprintf("experiment: E20 Monte Carlo failed: %v", err))
					}
					agree, _ := stats.Proportion(int(res.Agreed), int(res.Trials))
					t.AddRow(n, c.conc, c.ac, trials, trimFloat(agree),
						trimFloat(res.Steps.Mean()),
						res.Steps.Quantile(0.5), res.Steps.Quantile(0.9),
						ihQCI(res.Steps, 0.99), ihQCI(res.Steps, 0.999),
						res.Steps.Max(),
						res.Phases.Quantile(0.99), res.Phases.Max())
				}
			}
			return []Table{t}
		},
	}
}
