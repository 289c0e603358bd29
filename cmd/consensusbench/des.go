package main

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/des"
	"github.com/oblivious-consensus/conciliator/internal/experiment"
	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/stats"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// desFlags is the -des* flag surface.
type desFlags struct {
	run        bool
	jsonOut    string
	ns         string
	protocols  string
	trials     int
	latency    string
	loss       float64
	partitions string
	crash      string
	restart    string
	repros     string
}

// desDefaultNs is the committed E18 sweep: the regime where log log n
// visibly separates from log n.
var desDefaultNs = []int{1000, 10000, 100000}

const desDefaultTrials = 5

// desSweep is the resolved, validated input set of one flag-driven sweep.
type desSweep struct {
	ns        []int
	protocols []string
	net       des.NetConfig
	chaos     des.ChaosConfig
	// weakened marks the amnesiac-server restart variant: the memory
	// server wipes its registers on restart, which leaves the atomic
	// model — run errors and violations become findings, not failures.
	weakened bool
	trials   int
}

// validate parses and checks every -des-* value, returning the resolved
// sweep inputs.
func (f *desFlags) validate() (sw desSweep, err error) {
	if !f.run {
		return sw, fmt.Errorf("-des-json/-des-n/-des-protocols/-des-trials/-des-latency/-des-loss/-des-partition/-des-crash/-des-restart/-des-fault-repros require -des")
	}
	sw.ns = desDefaultNs
	if f.ns != "" {
		sw.ns, err = parseList("des-n", "process counts", f.ns, func(s string) (int, error) {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				return 0, fmt.Errorf("bad process count %q", s)
			}
			return n, nil
		})
		if err != nil {
			return sw, err
		}
	}
	sw.protocols = des.Protocols()
	if f.protocols != "" {
		sw.protocols, err = parseList("des-protocols", "protocols", f.protocols, func(s string) (string, error) {
			if !slices.Contains(des.Protocols(), s) {
				return "", fmt.Errorf("unknown protocol %q (want %s)", s, strings.Join(des.Protocols(), ", "))
			}
			return s, nil
		})
		if err != nil {
			return sw, err
		}
	}
	if f.latency != "" {
		sw.net.Latency, err = des.ParseLatency(f.latency)
		if err != nil {
			return sw, fmt.Errorf("-des-latency: %w", err)
		}
	}
	// The >=/<= shape rejects NaN too: `loss < 0 || loss > 0.99` silently
	// accepts NaN (every comparison is false), which would then corrupt
	// every Bernoulli draw of the sweep.
	if !(f.loss >= 0 && f.loss <= 0.99) {
		return sw, fmt.Errorf("-des-loss: %g out of range [0, 0.99]", f.loss)
	}
	sw.net.Loss = f.loss
	if f.partitions != "" {
		sw.net.Partitions, err = parseList("des-partition", "partitions", f.partitions, des.ParsePartition)
		if err != nil {
			return sw, err
		}
	}
	if f.crash == "" {
		if f.restart != "" {
			return sw, fmt.Errorf("-des-restart requires -des-crash: a restart variant without a crash schedule does nothing")
		}
		if f.repros != "" {
			return sw, fmt.Errorf("-des-fault-repros requires -des-crash: repro artifacts record crash schedules")
		}
	} else {
		sw.chaos, err = des.ParseChaosSpec(f.crash)
		if err != nil {
			return sw, fmt.Errorf("-des-crash: %w", err)
		}
		switch f.restart {
		case "", "durable":
			sw.chaos.ProcRestart, sw.chaos.ServerRestart = des.RestartDurable, des.RestartDurable
		case "amnesiac":
			// Processes lose their state; the server stays durable, so
			// the shared objects remain atomic and safety must hold.
			sw.chaos.ProcRestart, sw.chaos.ServerRestart = des.RestartAmnesiac, des.RestartDurable
		case "amnesiac-server":
			sw.chaos.ProcRestart, sw.chaos.ServerRestart = des.RestartAmnesiac, des.RestartAmnesiac
			sw.weakened = true
		default:
			return sw, fmt.Errorf("-des-restart: unknown variant %q (want durable, amnesiac, or amnesiac-server)", f.restart)
		}
	}
	sw.trials = f.trials
	if sw.trials < 0 {
		return sw, fmt.Errorf("-des-trials: %d must be positive", sw.trials)
	}
	if sw.trials == 0 {
		sw.trials = desDefaultTrials
	}
	// One throwaway validation run catches config-level errors (e.g. a
	// partition that never heals) before the sweep starts; the chaos plan
	// is validated statically (a weakened probe run may legitimately
	// fail, which is a finding, not a flag error).
	probe := des.Config{N: 1, Protocol: sw.protocols[0], Net: sw.net, Seed: 1}
	if _, perr := des.Run(probe); perr != nil {
		return sw, fmt.Errorf("-des: %w", perr)
	}
	if sw.chaos.Active() {
		chk := des.Config{N: 2, Protocol: sw.protocols[0], Net: sw.net, Chaos: sw.chaos, Seed: 1}
		if _, perr := chk.ChaosSchedule(); perr != nil {
			return sw, fmt.Errorf("-des-crash: %w", perr)
		}
	}
	return sw, nil
}

// desRecord is the machine-readable record written by -des-json.
type desRecord struct {
	Schema     string   `json:"schema"` // "conciliator-des/v1"
	Seed       uint64   `json:"seed"`
	Trials     int      `json:"trials"`
	Latency    string   `json:"latency"`
	Loss       float64  `json:"loss"`
	Partitions []string `json:"partitions,omitempty"`
	Crash      string   `json:"crash,omitempty"`
	Restart    string   `json:"restart,omitempty"`
	Rows       []desRow `json:"rows"`
}

type desRow struct {
	N             int     `json:"n"`
	Protocol      string  `json:"protocol"`
	Rounds        int     `json:"rounds_per_phase"`
	Phases        int     `json:"phases"`
	StepsMean     float64 `json:"steps_per_proc_mean"`
	StepsCI95     float64 `json:"steps_per_proc_ci95"`
	StepsP50      float64 `json:"steps_p50"`
	StepsP90      float64 `json:"steps_p90"`
	StepsP99      float64 `json:"steps_p99"`
	StepsMax      int64   `json:"steps_max"`
	MsgsSent      int64   `json:"msgs_sent"`
	MsgsDropped   int64   `json:"msgs_dropped"`
	MsgsBlocked   int64   `json:"msgs_blocked"`
	Retransmits   int64   `json:"retransmits"`
	Events        int64   `json:"events"`
	VirtualMsMean float64 `json:"virtual_ms_mean"`
	AllDecided    bool    `json:"all_decided"`
	Violations    int     `json:"violations"`
	Crashes       int64   `json:"crashes,omitempty"`
	Restarts      int64   `json:"restarts,omitempty"`
	Wipes         int64   `json:"wipes,omitempty"`
	Resyncs       int64   `json:"resyncs,omitempty"`
	GaveUp        int     `json:"gave_up,omitempty"`
	RunErrors     int     `json:"run_errors,omitempty"`
}

// runDESSweep executes the flag-driven DES sweep: for each (n, protocol)
// cell it runs `trials` seeds derived from the master seed, prints one
// table row, and optionally writes the JSON record. Deterministic in
// (seed, flags).
//
// Under a chaos schedule with atomic semantics (durable server) any
// safety violation fails the sweep; under the weakened amnesiac-server
// variant violations and run errors are findings, reported in the table
// and — with -des-fault-repros — shrunk into replayable artifacts.
func runDESSweep(out io.Writer, df *desFlags, seed uint64, format string) error {
	sw, err := df.validate()
	if err != nil {
		return err
	}

	rec := desRecord{
		Schema:  "conciliator-des/v1",
		Seed:    seed,
		Trials:  sw.trials,
		Latency: sw.net.Latency.String(),
		Loss:    sw.net.Loss,
		Crash:   df.crash,
		Restart: df.restart,
	}
	if sw.net.Latency.Mean <= 0 {
		rec.Latency = "exp:1ms" // the engine default, applied per run
	}
	for _, p := range sw.net.Partitions {
		rec.Partitions = append(rec.Partitions, p.String())
	}

	chaotic := sw.chaos.Active()
	title := fmt.Sprintf("message-passing sweep (latency %s, loss %g, %d partitions, %d trials)", rec.Latency, sw.net.Loss, len(sw.net.Partitions), sw.trials)
	columns := []string{"n", "protocol", "rounds/phase", "phases", "steps/proc", "p99", "max", "retransmits", "virtual ms", "all decided", "violations"}
	if chaotic {
		title = fmt.Sprintf("chaos sweep (latency %s, loss %g, crash %s, restart %s, %d trials)", rec.Latency, sw.net.Loss, df.crash, restartLabel(df.restart), sw.trials)
		columns = append(columns, "crashes", "restarts", "wipes", "resyncs", "gave up", "run errors")
	}
	tbl := experiment.Table{ID: "DES", Title: title, Columns: columns}

	var atomicViolations int
	// Per-trial seeds come from a named fork of the master seed, so the
	// sweep composition (which cells run, in what order) cannot change
	// any cell's results.
	seedRng := xrand.New(seed).ForkNamed(0xde5)
	for _, n := range sw.ns {
		for _, protocol := range sw.protocols {
			cellSeeds := make([]uint64, sw.trials)
			for t := range cellSeeds {
				cellSeeds[t] = seedRng.Uint64()
			}
			// The cell's trials run in parallel; everything below reads
			// them in seed order, so rows, records and artifacts do not
			// depend on the worker count.
			cellCfg := des.Config{N: n, Protocol: protocol, Net: sw.net, Chaos: sw.chaos}
			c := experiment.RunDESCell(experiment.Params{}, cellCfg, cellSeeds)
			// In the weakened regime a run may wedge (e.g. a process
			// blocked on state the server forgot): a measured outcome of
			// leaving the atomic model, counted in run errors.
			if !sw.weakened {
				if err := c.Err(); err != nil {
					return fmt.Errorf("des n=%d %s: %w", n, protocol, err)
				}
				atomicViolations += c.Violations
			}
			if df.repros != "" {
				if err := saveCellRepros(out, df.repros, cellCfg, cellSeeds, c); err != nil {
					return err
				}
			}
			sum := stats.Summarize(c.Steps)
			qs := stats.Quantiles(c.Steps, 0.5, 0.9, 0.99)
			// Virtual times are truncated to whole microseconds, as the
			// record has always reported them.
			vsum := stats.Summarize(c.VirtualMs(time.Microsecond))
			row := desRow{
				N: n, Protocol: protocol, Rounds: c.Rounds, Phases: c.MaxPhases,
				StepsMean: sum.Mean, StepsCI95: sum.CI95(),
				StepsP50: qs[0], StepsP90: qs[1], StepsP99: qs[2], StepsMax: c.MaxSteps,
				MsgsSent: c.MsgsSent, MsgsDropped: c.MsgsDropped, MsgsBlocked: c.MsgsBlocked,
				Retransmits: c.Retransmits, Events: c.Events, VirtualMsMean: vsum.Mean,
				AllDecided: c.AllDecided, Violations: c.Violations,
				Crashes: c.Crashes, Restarts: c.Restarts, Wipes: c.Wipes, Resyncs: c.Resyncs,
				GaveUp: c.GaveUp, RunErrors: c.RunErrors,
			}
			rec.Rows = append(rec.Rows, row)
			cells := []any{n, protocol, row.Rounds, row.Phases, sum.String(), qs[2], row.StepsMax,
				row.Retransmits, vsum.String(), row.AllDecided, row.Violations}
			if chaotic {
				cells = append(cells, row.Crashes, row.Restarts, row.Wipes, row.Resyncs, row.GaveUp, row.RunErrors)
			}
			tbl.AddRow(cells...)
		}
	}

	printTable(out, &tbl, format)
	if df.jsonOut != "" {
		if err := writeJSON(df.jsonOut, "DES", rec); err != nil {
			return err
		}
	}
	if atomicViolations > 0 {
		return fmt.Errorf("des: %d safety violations under atomic semantics — the shared objects are durable, so this is a protocol or simulator bug", atomicViolations)
	}
	return nil
}

// desMaxReprosPerCell caps artifact output per (n, protocol) cell: the
// first failures are the interesting ones; hundreds of near-identical
// artifacts are noise.
const desMaxReprosPerCell = 2

// saveCellRepros shrinks and saves the first desMaxReprosPerCell
// violating trials of cell c, in seed order, printing each saved path.
func saveCellRepros(out io.Writer, dir string, cfg des.Config, seeds []uint64, c experiment.DESCell) error {
	saved := 0
	for t, tr := range c.Trials {
		if saved == desMaxReprosPerCell {
			break
		}
		if tr.Err != nil || len(tr.Violations) == 0 {
			continue
		}
		cfg.Seed = seeds[t]
		path, err := shrinkAndSaveRepro(cfg, dir, saved)
		if err != nil {
			return fmt.Errorf("des n=%d %s seed %d: shrinking repro: %w", cfg.N, cfg.Protocol, cfg.Seed, err)
		}
		fmt.Fprintf(out, "saved fault repro: %s\n", path)
		saved++
	}
	return nil
}

// restartLabel names the restart variant for table titles.
func restartLabel(v string) string {
	if v == "" {
		return "durable"
	}
	return v
}

// shrinkAndSaveRepro takes a violating chaos config, ddmin-shrinks its
// materialized schedule against "still violates", and writes the
// des-fault-repro/v1 artifact into dir.
func shrinkAndSaveRepro(cfg des.Config, dir string, idx int) (string, error) {
	events, err := cfg.ChaosSchedule()
	if err != nil {
		return "", err
	}
	reproduces := func(cand []des.ChaosEvent) bool {
		c := cfg
		c.Chaos = des.ChaosConfig{Events: cand, ProcRestart: cfg.Chaos.ProcRestart, ServerRestart: cfg.Chaos.ServerRestart}
		res, rerr := des.Run(c)
		return rerr == nil && len(res.Violations) > 0
	}
	shrunk := fault.Shrink(events, 256, false, reproduces)
	final := cfg
	final.Chaos = des.ChaosConfig{Events: shrunk, ProcRestart: cfg.Chaos.ProcRestart, ServerRestart: cfg.Chaos.ServerRestart}
	res, rerr := des.Run(final)
	if rerr != nil || len(res.Violations) == 0 {
		// The shrunk schedule must still violate — fault.Shrink guarantees
		// this when the input violates, so reaching here is a bug.
		return "", fmt.Errorf("shrunk schedule no longer reproduces the violation (err=%v)", rerr)
	}
	repro := des.BuildRepro(final, shrunk, res.Violations)
	path := filepath.Join(dir, fmt.Sprintf("des_fault_n%d_%s_%d.json", cfg.N, cfg.Protocol, idx))
	if err := repro.Save(path); err != nil {
		return "", err
	}
	return path, nil
}
