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

// DESCell is one DES sweep cell, reduced once from its trials in seed
// order. E18, E21 and consensusbench's -des sweep all read it. An errored
// trial counts only in RunErrors; every other field covers the trials
// that ran to completion.
type DESCell struct {
	// Trials holds every run in seed order, errored or not.
	Trials []DESTrial
	// Rounds is the conciliator round count per phase, which n and the
	// protocol fix.
	Rounds    int
	MaxPhases int
	MaxSteps  int64
	// Steps pools every process's step count across trials;
	// VirtualTimes holds each trial's virtual time.
	Steps        []float64
	VirtualTimes []time.Duration
	// Totals across trials.
	MsgsSent, MsgsDropped, MsgsBlocked, Retransmits, Events int64
	Crashes, Restarts, Wipes, Resyncs                       int64
	GaveUp                                                  int
	RunErrors, Violations                                   int
	AllDecided                                              bool
}

// RunDESCell runs cfg once per seed, with cfg.Seed = seeds[t], on the
// package's trial runner and reduces the runs into one cell. Each run is
// itself single-threaded; workers just spread runs over cores.
func RunDESCell(p Params, cfg des.Config, seeds []uint64) DESCell {
	return reduceDES(runTrials(p, seeds, func(_ int, seed uint64) DESTrial {
		c := cfg
		c.Seed = seed
		res, err := des.Run(c)
		return DESTrial{Result: res, Err: err}
	}))
}

// reduceDES reduces seed-ordered trials into their cell.
func reduceDES(trials []DESTrial) DESCell {
	c := DESCell{Trials: trials, AllDecided: true}
	for _, tr := range trials {
		if tr.Err != nil {
			c.RunErrors++
			continue
		}
		c.Rounds = tr.Rounds
		c.MaxPhases = max(c.MaxPhases, tr.Phases)
		c.MaxSteps = max(c.MaxSteps, tr.MaxSteps())
		for _, s := range tr.Steps {
			c.Steps = append(c.Steps, float64(s))
		}
		c.VirtualTimes = append(c.VirtualTimes, tr.VirtualTime)
		c.MsgsSent += tr.MsgsSent
		c.MsgsDropped += tr.MsgsDropped
		c.MsgsBlocked += tr.MsgsBlocked
		c.Retransmits += tr.Retransmits
		c.Events += tr.Events
		c.Crashes += tr.Crashes
		c.Restarts += tr.Restarts
		c.Wipes += tr.Wipes
		c.Resyncs += tr.Resyncs
		c.GaveUp += tr.GaveUp
		c.Violations += len(tr.Violations)
		c.AllDecided = c.AllDecided && tr.AllDecided
	}
	return c
}

// Err returns the cell's first run error in seed order, or nil.
func (c DESCell) Err() error {
	for _, tr := range c.Trials {
		if tr.Err != nil {
			return tr.Err
		}
	}
	return nil
}

// VirtualMs returns the cell's virtual times in milliseconds, each first
// truncated to a multiple of res.
func (c DESCell) VirtualMs(res time.Duration) []float64 {
	ms := make([]float64, len(c.VirtualTimes))
	for i, d := range c.VirtualTimes {
		ms[i] = float64(d.Truncate(res)) / float64(time.Millisecond)
	}
	return ms
}

// runDESCell runs `trials` DES trials of cfg, one per algorithm seed of
// the master p.Seed+seedOff. Under atomic semantics a run error is a
// programming bug, not data, so unless weakened it panics on the first.
func runDESCell(p Params, cfg des.Config, trials int, seedOff uint64, weakened bool) DESCell {
	seeds := make([]uint64, trials)
	for t, s := range seedsFor(p.Seed+seedOff, trials) {
		seeds[t] = s.alg
	}
	c := RunDESCell(p, cfg, seeds)
	if err := c.Err(); err != nil && !weakened {
		panic(fmt.Sprintf("experiment: DES run failed: %v", err))
	}
	return c
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
					c := runDESCell(p, des.Config{N: n, Protocol: protocol}, trials, 1800+cell, false)
					opsPerRound := 1
					if protocol == des.ProtoPriorityMax {
						opsPerRound = 2
					}
					curve.AddRow(n, protocol, c.Rounds,
						stats.Summarize(c.Steps).String(),
						c.Rounds*opsPerRound+5, c.MaxPhases,
						c.AllDecided, c.Violations)
					quant.AddRow(n, protocol,
						qci(c.Steps, 0.5), qci(c.Steps, 0.9), qci(c.Steps, 0.99),
						c.MaxSteps)
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
				c := runDESCell(p, des.Config{N: advN, Protocol: des.ProtoSifter, Net: sc.net}, trials, 1850+uint64(i), false)
				adversity.AddRow(sc.name,
					stats.Summarize(c.Steps).String(),
					stats.Summarize(c.VirtualMs(time.Nanosecond)).String(),
					c.Retransmits, c.MsgsDropped, c.MsgsBlocked, c.MaxPhases,
					c.AllDecided, c.Violations)
			}

			return []Table{curve, quant, adversity}
		},
	}
}
