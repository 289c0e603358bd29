package experiment

import (
	"fmt"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/des"
	"github.com/oblivious-consensus/conciliator/internal/stats"
)

// DESTrial is one DES run of a sweep cell: its result and its run error.
type DESTrial struct {
	des.Result
	Err error
}

// RunDESTrials runs cfg once per seed, with cfg.Seed = seeds[t], on the
// package's trial runner and returns every run's result and error in
// seed order. Each run is itself single-threaded; workers just spread
// runs over cores.
func RunDESTrials(p Params, cfg des.Config, seeds []uint64) []DESTrial {
	return runTrials(p, seeds, func(_ int, seed uint64) DESTrial {
		c := cfg
		c.Seed = seed
		res, err := des.Run(c)
		return DESTrial{Result: res, Err: err}
	})
}

// desTrialSet is one DES cell of E18 or E21: per-trial results in trial
// order plus the pooled per-process step sample.
type desTrialSet struct {
	trials []DESTrial
	steps  []float64
}

// runDESCell runs `trials` DES trials of cfg, one per algorithm seed of
// the master p.Seed+seedOff.
func runDESCell(p Params, cfg des.Config, trials int, seedOff uint64) desTrialSet {
	seeds := make([]uint64, trials)
	for t, s := range seedsFor(p.Seed+seedOff, trials) {
		seeds[t] = s.alg
	}
	set := desTrialSet{trials: RunDESTrials(p, cfg, seeds)}
	for _, tr := range set.trials {
		for _, s := range tr.Steps {
			set.steps = append(set.steps, float64(s))
		}
	}
	return set
}

// mustSucceed panics on the cell's first run error: under atomic
// semantics a run error is a programming bug, not data.
func (s desTrialSet) mustSucceed() {
	for _, tr := range s.trials {
		if tr.Err != nil {
			panic(fmt.Sprintf("experiment: DES run failed: %v", tr.Err))
		}
	}
}

// runErrs counts the trials that ended in a run error.
func (s desTrialSet) runErrs() int {
	n := 0
	for _, tr := range s.trials {
		if tr.Err != nil {
			n++
		}
	}
	return n
}

func (s desTrialSet) maxPhases() int {
	m := 0
	for _, tr := range s.trials {
		m = max(m, tr.Phases)
	}
	return m
}

func (s desTrialSet) violations() int {
	v := 0
	for _, tr := range s.trials {
		v += len(tr.Violations)
	}
	return v
}

func (s desTrialSet) allDecided() bool {
	for _, tr := range s.trials {
		if !tr.AllDecided {
			return false
		}
	}
	return true
}

// qci renders a QuantileCI triple as "v [lo, hi]".
func qci(xs []float64, q float64) string {
	v, lo, hi := stats.QuantileCI(xs, q)
	return fmt.Sprintf("%s [%s, %s]", trimFloat(v), trimFloat(lo), trimFloat(hi))
}

// e18DES is the message-passing discrete-event sweep: the steps-vs-n
// curve at n far beyond the controlled simulator's reach, where the
// O(log log n) tuned sifter separates from the O(log n) constant-p
// baseline, plus quantile tables and network-adversity scenarios.
func e18DES() Experiment {
	return Experiment{
		ID:    "E18",
		Title: "Message-passing DES at n up to 100k: log log n vs log n individual work",
		Claim: "Theorem 2 / Section 4: O(log log n) expected individual work per phase, vs Theta(log n) for the constant-p sifter and O(log* n) for Algorithm 1 (footnote 1, max registers)",
		Run: func(p Params) []Table {
			p = p.withDefaults()
			trials := p.trials(3, 5)
			nsweep := p.ns([]int{256, 1024}, []int{1000, 10000, 100000})
			protocols := des.Protocols()

			curve := Table{
				ID:      "E18a",
				Title:   "steps per process vs n (message-passing DES, exp latency 1ms)",
				Columns: []string{"n", "protocol", "rounds/phase", "steps/proc", "predicted/phase", "phases", "all decided", "violations"},
				Notes: []string{
					"One step = one shared-memory operation emulated as a request/reply " +
						"round trip to the memory server. predicted/phase is the protocol's " +
						"per-phase step bound (conciliator rounds x ops/round + 5 adopt-commit " +
						"steps); extra phases repeat it. The tuned sifter's round count grows " +
						"like log log n, the constant-p sifter's like log n, priority-max's " +
						"like log* n — the separation the controlled simulator could not reach.",
				},
			}
			quant := Table{
				ID:      "E18b",
				Title:   "per-process step quantiles with order-statistic 95% CIs",
				Columns: []string{"n", "protocol", "p50", "p90", "p99", "max"},
				Notes: []string{
					"Quantiles of the per-process step counts pooled across trials; " +
						"[lo, hi] are distribution-free order-statistic confidence bounds " +
						"(stats.QuantileCI). Tight or degenerate intervals are expected: in a " +
						"clean phase every process performs the same bounded operation " +
						"sequence, so spread only appears when adopt-commit forces extra phases.",
				},
			}
			var cell uint64
			for _, n := range nsweep {
				for _, protocol := range protocols {
					cell++
					set := runDESCell(p, des.Config{N: n, Protocol: protocol}, trials, 1800+cell)
					set.mustSucceed()
					r0 := set.trials[0]
					opsPerRound := 1
					if protocol == des.ProtoPriorityMax {
						opsPerRound = 2
					}
					predicted := r0.Rounds*opsPerRound + 5
					curve.AddRow(n, protocol, r0.Rounds,
						stats.Summarize(set.steps).String(),
						predicted, set.maxPhases(),
						fmt.Sprintf("%v", set.allDecided()), set.violations())
					quant.AddRow(n, protocol,
						qci(set.steps, 0.5), qci(set.steps, 0.9), qci(set.steps, 0.99),
						trimFloat(stats.Summarize(set.steps).Max))
				}
			}

			advN := nsweep[len(nsweep)-2] // mid n: 10k full, 256 quick
			adversity := Table{
				ID:      "E18c",
				Title:   fmt.Sprintf("network adversity at n=%d (sifter)", advN),
				Columns: []string{"scenario", "steps/proc", "virtual ms", "retransmits", "dropped", "blocked", "phases", "all decided", "violations"},
				Notes: []string{
					"Loss and partitions live below the exactly-once RPC shim, so they " +
						"stretch virtual time and message counts but never the safety " +
						"properties: the monitors must stay quiet in every scenario. The " +
						"partition isolates the top 30% of processes for [5ms, 25ms).",
				},
			}
			partition := des.Partition{From: 5 * time.Millisecond, Until: 25 * time.Millisecond, Frac: 0.3}
			scenarios := []struct {
				name string
				net  des.NetConfig
			}{
				{"exp latency (baseline)", des.NetConfig{}},
				{"uniform latency", des.NetConfig{Latency: des.LatencyDist{Kind: des.LatUniform, Mean: time.Millisecond}}},
				{"loss 0.2", des.NetConfig{Loss: 0.2}},
				{"partition 30% 5-25ms", des.NetConfig{Partitions: []des.Partition{partition}}},
				{"loss 0.2 + partition", des.NetConfig{Loss: 0.2, Partitions: []des.Partition{partition}}},
			}
			for i, sc := range scenarios {
				set := runDESCell(p, des.Config{N: advN, Protocol: des.ProtoSifter, Net: sc.net}, trials, 1850+uint64(i))
				set.mustSucceed()
				var vtimes []float64
				var retrans, dropped, blocked int64
				for _, r := range set.trials {
					vtimes = append(vtimes, float64(r.VirtualTime)/float64(time.Millisecond))
					retrans += r.Retransmits
					dropped += r.MsgsDropped
					blocked += r.MsgsBlocked
				}
				adversity.AddRow(sc.name,
					stats.Summarize(set.steps).String(),
					stats.Summarize(vtimes).String(),
					retrans, dropped, blocked, set.maxPhases(),
					fmt.Sprintf("%v", set.allDecided()), set.violations())
			}

			return []Table{curve, quant, adversity}
		},
	}
}
