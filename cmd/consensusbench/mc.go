package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/experiment"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/stats"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// mcFlags is the flat-engine Monte Carlo mode: millions of full consensus
// trials on the flat state-machine interpreter, aggregated by streaming
// integer histograms.
type mcFlags struct {
	spec    string
	n       int
	trials  int64
	schedK  string
	jsonOut string
}

// mcProtocols maps the -mc spec to flat configurations. "all" expands to
// the three corollary protocols the flat engine supports.
func (f *mcFlags) protocols() ([]consensus.FlatConfig, error) {
	spec := f.spec
	if spec == "" || spec == "all" {
		spec = "sifter:register,sifter-half:register,priority-max:snapshot"
	}
	return parseList("mc", "protocols", spec, func(tok string) (consensus.FlatConfig, error) {
		conc, ac, ok := strings.Cut(tok, ":")
		if !ok {
			return consensus.FlatConfig{}, fmt.Errorf("entry %q: want conciliator:adopt-commit (e.g. sifter:register)", tok)
		}
		return consensus.FlatConfig{Conciliator: conc, AC: ac}, nil
	})
}

func (f *mcFlags) validate(quick bool) (kind sched.Kind, err error) {
	if _, err := f.protocols(); err != nil {
		return 0, err
	}
	if f.n < 0 || f.trials < 0 {
		return 0, fmt.Errorf("-mc-n and -mc-trials must be positive")
	}
	if f.n == 0 {
		f.n = 16
	}
	if f.trials == 0 {
		if quick {
			f.trials = 20_000
		} else {
			f.trials = 1_000_000
		}
	}
	name := f.schedK
	if name == "" {
		name = "random"
	}
	kind, ok := sched.KindByName(name)
	if !ok {
		return 0, fmt.Errorf("unknown -mc-sched %q", name)
	}
	return kind, nil
}

// mcRecord is the machine-readable Monte Carlo record written by -mc-json.
type mcRecord struct {
	Schema      string `json:"schema"` // "conciliator-mc/v1"
	Seed        uint64 `json:"seed"`
	N           int    `json:"n"`
	Trials      int64  `json:"trials"`
	Sched       string `json:"sched"`
	Parallelism int    `json:"parallelism"`
	hostShape
	WallSeconds float64   `json:"total_wall_seconds"`
	Entries     []mcEntry `json:"entries"`
}

type mcEntry struct {
	ID          string  `json:"id"` // "mc/<conciliator>+<ac>"
	Trials      int64   `json:"trials"`
	Agreed      int64   `json:"agreed"`
	MeanSteps   float64 `json:"mean_steps"`
	P50         int64   `json:"p50"`
	P90         int64   `json:"p90"`
	P99         int64   `json:"p99"`
	P99Lo       int64   `json:"p99_lo"`
	P99Hi       int64   `json:"p99_hi"`
	P999        int64   `json:"p999"`
	MaxSteps    int64   `json:"max_steps"`
	PhasesMax   int64   `json:"phases_max"`
	TotalSteps  int64   `json:"total_steps"`
	WallSeconds float64 `json:"wall_seconds"`
	StepsPerSec float64 `json:"steps_per_sec"`
}

// runMCSweep runs the Monte Carlo mode: one RunMonteCarlo sweep per
// selected protocol, a rendered table, and optionally the JSON record.
func runMCSweep(out io.Writer, f *mcFlags, seed uint64, quick bool, parallel int, format string) error {
	kind, err := f.validate(quick)
	if err != nil {
		return err
	}
	cfgs, err := f.protocols()
	if err != nil {
		return err
	}
	if parallel < 1 {
		parallel = runtime.NumCPU()
	}
	rec := mcRecord{
		Schema:      "conciliator-mc/v1",
		Seed:        seed,
		N:           f.n,
		Trials:      f.trials,
		Sched:       kind.String(),
		Parallelism: parallel,
		hostShape:   thisHost(),
	}
	tbl := experiment.Table{
		ID:    "MC",
		Title: fmt.Sprintf("flat-engine Monte Carlo, n=%d, %d trials, %s schedule", f.n, f.trials, kind),
		Columns: []string{"protocol", "agree", "mean", "p50", "p90", "p99 [95% CI]", "p999", "max",
			"phases max", "Msteps/s"},
		Notes: []string{
			"Exact nearest-rank quantiles of per-process steps to decide over all trials;",
			"[lo, hi] is the distribution-free order-statistic ~95% CI (stats.IntHist).",
		},
	}
	start := time.Now()
	for i, cfg := range cfgs {
		res, err := consensus.RunMonteCarlo(consensus.MCConfig{
			N:       f.n,
			Trials:  f.trials,
			Flat:    cfg,
			Sched:   kind,
			Seed:    seed + uint64(i),
			Workers: parallel,
		})
		if err != nil {
			return fmt.Errorf("-mc %s:%s: %w", cfg.Conciliator, cfg.AC, err)
		}
		p99, p99lo, p99hi := res.Steps.QuantileCI(0.99)
		agree, _ := stats.Proportion(int(res.Agreed), int(res.Trials))
		tbl.AddRow(cfg.Conciliator+"+"+cfg.AC, agree,
			res.Steps.Mean(), res.Steps.Quantile(0.5), res.Steps.Quantile(0.9),
			fmt.Sprintf("%d [%d, %d]", p99, p99lo, p99hi),
			res.Steps.Quantile(0.999), res.Steps.Max(), res.Phases.Max(),
			res.StepsPerSec/1e6)
		rec.Entries = append(rec.Entries, mcEntry{
			ID:          "mc/" + cfg.Conciliator + "+" + cfg.AC,
			Trials:      res.Trials,
			Agreed:      res.Agreed,
			MeanSteps:   res.Steps.Mean(),
			P50:         res.Steps.Quantile(0.5),
			P90:         res.Steps.Quantile(0.9),
			P99:         p99,
			P99Lo:       p99lo,
			P99Hi:       p99hi,
			P999:        res.Steps.Quantile(0.999),
			MaxSteps:    res.Steps.Max(),
			PhasesMax:   res.Phases.Max(),
			TotalSteps:  res.TotalSteps,
			WallSeconds: res.Elapsed.Seconds(),
			StepsPerSec: res.StepsPerSec,
		})
	}
	printTable(out, &tbl, format)
	if f.jsonOut != "" {
		rec.WallSeconds = time.Since(start).Seconds()
		return writeJSON(f.jsonOut, "mc", rec)
	}
	return nil
}

// benchCountdown is the flat-engine image of the controlled-steps
// microbenchmark bodies: process pid performs a fixed number of trivial
// operations.
type benchCountdown struct {
	steps func(pid int) int
	left  []int
}

func (m *benchCountdown) Init(pid int, _ *xrand.Rand) { m.left[pid] = m.steps(pid) }

func (m *benchCountdown) Step(pid int, _ *xrand.Rand) bool {
	m.left[pid]--
	return m.left[pid] == 0
}

// flatStepsRuns is the fixed run count of the flat-steps workloads. The
// flat engine clears each workload in microseconds, so it takes more
// runs than the coroutine engine to integrate a stable steps/s figure;
// since steps/s is time-normalized, flat-steps/X vs controlled-steps/X
// in one record is still the engine speedup on identical modeled work.
const flatStepsRuns = 16 * controlledStepsRuns

// flatStepsEntries runs stepsWorkloads on the flat state-machine engine
// and returns one bench entry per workload under the "flat-steps/" id
// prefix.
func flatStepsEntries() []benchEntry {
	entries := make([]benchEntry, 0, len(stepsWorkloads))
	for _, tc := range stepsWorkloads {
		m := &benchCountdown{steps: tc.steps, left: make([]int, tc.n)}
		fr := sim.NewFlatRunner[*benchCountdown]()
		var res sim.Result
		var totalSteps, totalSlots int64
		start := time.Now()
		for i := 0; i < flatStepsRuns; i++ {
			if err := fr.RunInto(tc.mk(tc.n, uint64(i)+1), m, sim.Config{AlgSeed: uint64(i) + 1}, &res); err != nil {
				// Infinite-schedule workloads far below the slot budget: an
				// error is an engine bug, not a measurement artifact.
				panic(err)
			}
			totalSteps += res.TotalSteps
			totalSlots += res.Slots
		}
		entries = append(entries, benchEntryOf("flat-steps/"+tc.name, time.Since(start).Seconds(), totalSteps, totalSlots))
	}
	return entries
}
