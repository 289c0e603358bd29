package experiment

import (
	"fmt"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/des"
	"github.com/oblivious-consensus/conciliator/internal/stats"
)

// e21Chaos is the crash-recovery chaos matrix: the E18 message-passing
// DES swept across {crash rate x restart variant x loss x partition}
// for every protocol. Under atomic shared-memory semantics (the server
// restarts durable, so the objects never lose state) the chaos layer is
// below the model the proofs live in: safety must be untouched, and the
// experiment panics if any such cell trips a monitor. The amnesiac-
// server scenario deliberately breaks the model; its violations are the
// point.
func e21Chaos() Experiment {
	return Experiment{
		ID:    "E21",
		Title: "Crash-recovery chaos matrix: crashes, restarts, retries on the DES",
		Claim: "Robustness: crash/restart chaos under atomic semantics stretches work and virtual time but never safety (Theorems 1-2 assume nothing about process speed); wiping the memory server leaves the model, and the monitors catch it",
		Run: func(p Params) []Table {
			p = p.withDefaults()
			trials := p.trials(3, 5)
			nsweep := p.ns([]int{48, 96}, []int{1000, 10000})
			protocols := des.Protocols()

			partition := des.Partition{From: 5 * time.Millisecond, Until: 20 * time.Millisecond, Frac: 0.3}
			scenarios := []struct {
				name     string
				net      des.NetConfig
				chaos    des.ChaosConfig
				retry    des.RetryPolicy
				weakened bool
				giveUp   bool
			}{
				{name: "no chaos (baseline)"},
				{
					name:  "proc crashes 20% durable",
					chaos: des.ChaosConfig{ProcRate: 0.2, ProcRestart: des.RestartDurable},
				},
				{
					name:  "proc crashes 20% amnesiac",
					chaos: des.ChaosConfig{ProcRate: 0.2, ProcRestart: des.RestartAmnesiac},
				},
				{
					name:  "server outages x2 durable",
					chaos: des.ChaosConfig{ServerWindows: 2, ServerRestart: des.RestartDurable, MeanDown: 3 * time.Millisecond},
				},
				{
					name: "crashes + loss 0.05 + partition",
					net:  des.NetConfig{Loss: 0.05, Partitions: []des.Partition{partition}},
					chaos: des.ChaosConfig{
						ProcRate: 0.2, ProcRestart: des.RestartAmnesiac,
						ServerWindows: 1, ServerRestart: des.RestartDurable,
						MeanDown: 3 * time.Millisecond,
					},
					retry: des.RetryPolicy{Jitter: 0.2},
				},
				{
					// Graceful degradation: a server outage far longer than
					// the bounded retry budget can bridge. Every process
					// resigns instead of wedging the event loop, and the
					// per-process outcomes say so.
					name: "long outage, bounded retries (give-up)",
					chaos: des.ChaosConfig{Events: []des.ChaosEvent{
						{Target: des.ServerNode, At: 2 * time.Millisecond, Down: 500 * time.Millisecond, Restart: des.RestartDurable},
					}},
					retry:  des.RetryPolicy{MaxRetries: 4},
					giveUp: true,
				},
				{
					// The weakened regime: amnesiac server restarts wipe the
					// registers. The horizon stretches the windows across the
					// whole run so one tends to land in the adopt-commit
					// tail, where the damage splits decisions.
					name: "server amnesia (weakened)",
					chaos: des.ChaosConfig{
						ServerWindows: 2, ServerRestart: des.RestartAmnesiac,
						Horizon: 48 * time.Millisecond, MeanDown: 2 * time.Millisecond,
					},
					weakened: true,
				},
			}

			matrix := Table{
				ID:      "E21a",
				Title:   "chaos matrix: crash/restart/retry scenarios per protocol and n",
				Columns: []string{"n", "protocol", "scenario", "steps/proc", "crashes", "restarts", "resyncs", "wipes", "gave up", "all decided", "run errors", "violations"},
				Notes: []string{
					"Counts are totals across trials. Scenarios except the last run under " +
						"atomic semantics (durable server restarts): there the monitors must " +
						"stay quiet — the run panics otherwise — and processes either decide " +
						"or (give-up scenario only) resign after their bounded retry budget. " +
						"The weakened scenario wipes the server's registers on restart; its " +
						"violations and run errors are expected findings that quantify how " +
						"far safety depends on the atomic-memory assumption.",
					"resyncs = amnesiac process restarts that re-established their RPC " +
						"session; wipes = amnesiac server restarts that lost every register.",
				},
			}

			var cell uint64
			for _, n := range nsweep {
				for _, protocol := range protocols {
					for _, sc := range scenarios {
						cell++
						cfg := des.Config{
							N:        n,
							Protocol: protocol,
							Net:      sc.net,
							Chaos:    sc.chaos,
							Retry:    sc.retry,
						}
						// The weakened scenario wipes the memory server's
						// registers, which voids the termination analysis
						// along with the safety proofs: its run errors are
						// findings, not bugs.
						c := runDESCell(p, cfg, trials, 2100+cell, sc.weakened)
						if !sc.weakened && c.Violations > 0 {
							panic(fmt.Sprintf("experiment: E21 %s n=%d %q: safety violated under atomic semantics", protocol, n, sc.name))
						}
						if sc.giveUp && c.GaveUp == 0 {
							panic(fmt.Sprintf("experiment: E21 %s n=%d %q: give-up scenario degraded nobody", protocol, n, sc.name))
						}
						matrix.AddRow(n, protocol, sc.name,
							stats.Summarize(c.Steps).String(),
							c.Crashes, c.Restarts, c.Resyncs, c.Wipes, c.GaveUp,
							c.AllDecided, c.RunErrors, c.Violations)
					}
				}
			}
			return []Table{matrix}
		},
	}
}
