package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/des"
	"github.com/oblivious-consensus/conciliator/internal/experiment"
	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/sched"
)

// faultFlags is the -fault* flag surface.
type faultFlags struct {
	spec    string // -fault: comma-separated fault kinds, or "all"
	trials  int    // -fault-trials
	n       int    // -fault-n
	scheds  string // -fault-sched: comma-separated sched kind names
	stutter int    // -fault-stutter: max stutter/stall length and staleness depth
	jsonOut string // -fault-json
	repros  string // -fault-repros
	shrink  int    // -fault-shrink
	replay  string // -fault-replay
}

// allSemantics and allProcFaults are the fault matrix's full axes.
var (
	allSemantics  = []fault.Semantics{fault.SemAtomic, fault.SemRegular, fault.SemSafe}
	allProcFaults = []fault.ProcFault{fault.ProcNone, fault.ProcStutter, fault.ProcStall, fault.ProcCrashRecover}
)

// validate checks the sweep's flag values before any trial runs. It
// returns the parsed matrix axes for the sweep.
func (f *faultFlags) validate() (sems []fault.Semantics, procs []fault.ProcFault, kinds []sched.Kind, err error) {
	if f.spec == "" {
		return nil, nil, nil, fmt.Errorf("fault flags require -fault <kinds> or -fault-replay <artifact> (e.g. -fault all, -fault stutter,safe)")
	}
	if f.trials < 0 {
		return nil, nil, nil, fmt.Errorf("-fault-trials must be non-negative, got %d", f.trials)
	}
	if f.n < 0 {
		return nil, nil, nil, fmt.Errorf("-fault-n must be non-negative, got %d", f.n)
	}
	if f.stutter < 0 {
		return nil, nil, nil, fmt.Errorf("-fault-stutter must be non-negative, got %d", f.stutter)
	}
	if f.shrink < 0 {
		return nil, nil, nil, fmt.Errorf("-fault-shrink must be non-negative, got %d", f.shrink)
	}
	// Each item adds to its axis; "all" sets the full matrix on both.
	if _, err = parseList("fault", "fault kinds", f.spec, func(tok string) (struct{}, error) {
		if tok == "all" {
			sems, procs = allSemantics, allProcFaults
		} else if pf, ok := fault.ProcFaultByName(tok); ok {
			procs = append(procs, pf)
		} else if sm, ok := fault.SemanticsByName(tok); ok {
			sems = append(sems, sm)
		} else {
			return struct{}{}, fmt.Errorf("unknown fault kind %q (want all, %s, %s, %s, %s, %s, %s)",
				tok, fault.ProcStutter, fault.ProcStall, fault.ProcCrashRecover,
				fault.SemAtomic, fault.SemRegular, fault.SemSafe)
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, nil, nil, err
	}
	// Naming only process faults sweeps them against every register
	// semantics, and vice versa: each axis defaults to "all" when the
	// other is pinned.
	if len(sems) == 0 {
		sems = allSemantics
	}
	if len(procs) == 0 {
		procs = allProcFaults
	}
	if f.scheds != "" {
		kinds, err = parseList("fault-sched", "schedule kinds", f.scheds, func(tok string) (sched.Kind, error) {
			k, ok := sched.KindByName(tok)
			if !ok {
				var names []string
				for _, kk := range sched.Kinds() {
					names = append(names, kk.String())
				}
				return k, fmt.Errorf("unknown schedule kind %q (want %s)", tok, strings.Join(names, ", "))
			}
			return k, nil
		})
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return sems, procs, kinds, nil
}

// faultReport is the machine-readable record written by -fault-json.
type faultReport struct {
	Schema string `json:"schema"` // "conciliator-fault-report/v1"
	Seed   uint64 `json:"seed"`
	N      int    `json:"n"`
	Trials int    `json:"trials"`
	Shrink int    `json:"shrink_budget"`
	hostShape
	WallSeconds float64          `json:"wall_seconds"`
	Cells       []faultCellEntry `json:"cells"`
}

type faultCellEntry struct {
	Semantics  string         `json:"semantics"`
	Proc       string         `json:"proc_fault"`
	Sched      string         `json:"sched"`
	Workload   string         `json:"workload"`
	Atomic     bool           `json:"atomic"`
	Trials     int            `json:"trials"`
	Violated   int            `json:"violated"`
	ByMonitor  map[string]int `json:"by_monitor,omitempty"`
	Faults     fault.Counts   `json:"faults_injected"`
	ReproPaths []string       `json:"repro_paths,omitempty"`
}

// runFaultSweep executes the fault matrix and reports. The exit
// contract mirrors the nightly job's needs: violations in
// atomic-semantics cells (the paper's own model, where monitors must
// stay silent) fail the run; violations in weakened-register cells are
// findings and do not.
func runFaultSweep(out io.Writer, ff *faultFlags, params experiment.Params) error {
	sems, procs, kinds, err := ff.validate()
	if err != nil {
		return err
	}
	cfg := experiment.FaultSweepConfig{
		Params:    params,
		N:         ff.n,
		Trials:    ff.trials,
		Semantics: sems,
		Procs:     procs,
		Kinds:     kinds,
		Shrink:    ff.shrink,
		ReproDir:  ff.repros,
	}
	if cfg.Shrink == 0 {
		// Shrinking is the point of the sweep; 2048 repro runs per
		// artifact reduces typical schedules to a handful of events.
		cfg.Shrink = 2048
	}
	if ff.stutter > 0 {
		// Threaded through Plan.MaxArg by the sweep via a wrapper below.
		cfg.MaxArg = ff.stutter
	}
	start := time.Now()
	results := experiment.RunFaultSweep(cfg)

	rep := faultReport{
		Schema:    "conciliator-fault-report/v1",
		Seed:      params.Seed,
		N:         cfg.N,
		Trials:    cfg.Trials,
		Shrink:    cfg.Shrink,
		hostShape: thisHost(),
	}
	var atomicFailures []string
	totalViolated := 0
	for _, cr := range results {
		entry := faultCellEntry{
			Semantics: cr.Cell.Semantics.String(),
			Proc:      cr.Cell.Proc.String(),
			Sched:     cr.Cell.Kind.String(),
			Workload:  cr.Cell.Workload,
			Atomic:    cr.Cell.Atomic(),
			Trials:    cr.Trials,
			Violated:  cr.Violated,
			Faults:    cr.Faults,
		}
		if len(cr.ByMonitor) > 0 {
			entry.ByMonitor = cr.ByMonitor
		}
		for _, r := range cr.Repros {
			entry.ReproPaths = append(entry.ReproPaths, r.SavedPath)
		}
		rep.Cells = append(rep.Cells, entry)

		status := "ok"
		if cr.Violated > 0 {
			totalViolated += cr.Violated
			status = fmt.Sprintf("VIOLATED %d/%d", cr.Violated, cr.Trials)
			if cr.Cell.Atomic() {
				atomicFailures = append(atomicFailures, cr.Cell.String())
			}
		}
		fmt.Fprintf(out, "fault: %-55s %8s  faults=%d\n", cr.Cell, status, cr.Faults.Total())
		for _, r := range cr.Repros {
			where := "(in memory)"
			if r.SavedPath != "" {
				where = r.SavedPath
			}
			fmt.Fprintf(out, "fault:   repro: %d events -> %s\n", r.Run.Fault.Len(), where)
		}
	}
	rep.WallSeconds = time.Since(start).Seconds()
	fmt.Fprintf(out, "fault: %d cells, %d violated trials, %.1fs\n", len(results), totalViolated, rep.WallSeconds)

	if ff.jsonOut != "" {
		if err := writeJSON(ff.jsonOut, "fault", rep); err != nil {
			return err
		}
	}
	if len(atomicFailures) > 0 {
		return fmt.Errorf("safety violations in atomic-semantics cells (reproduction bug, not a finding): %s",
			strings.Join(atomicFailures, "; "))
	}
	return nil
}

// runFaultReplay re-executes a saved repro artifact on the engine its
// schema tag names and confirms the replay reproduces the recorded
// violations exactly.
func runFaultReplay(out io.Writer, path string) error {
	data, err := os.ReadFile(path)
	schema := ""
	if err == nil {
		schema, err = fault.ReproSchema(data)
	}
	if err != nil {
		return fmt.Errorf("loading repro: %w", err)
	}
	var (
		recorded, got []fault.Violation
		stats         string
		replayErr     error
	)
	if schema == fault.SchemaDESRepro {
		r, err := fault.DecodeRepro[des.ReproRun](data)
		if err != nil {
			return fmt.Errorf("loading repro: %w", err)
		}
		fmt.Fprintf(out, "replaying %s: %s protocol=%s n=%d seed=%d chaos-events=%d\n",
			path, schema, r.Run.Protocol, r.N, r.Run.Seed, len(r.Run.Chaos))
		res, err := des.Replay(r)
		recorded, got, replayErr = r.Violations, res.Violations, err
		stats = fmt.Sprintf("%d crashes, %d wipes", res.Crashes, res.Wipes)
	} else {
		r, err := fault.DecodeRepro[fault.SlotRun](data)
		if err != nil {
			return fmt.Errorf("loading repro: %w", err)
		}
		fmt.Fprintf(out, "replaying %s: %s workload=%s n=%d sched=%s/%d alg-seed=%d fault-events=%d\n",
			path, schema, r.Run.Workload, r.N, r.Run.Sched, r.Run.SchedSeed, r.Run.AlgSeed, r.Run.Fault.Len())
		res, err := experiment.ReplayRepro(r)
		recorded, got, replayErr = r.Violations, res.Violations, err
		stats = fmt.Sprintf("%d restarts, %d faults injected", res.Res.Restarts, res.Res.Faults.Total())
	}
	list := func(title string, vs []fault.Violation) {
		fmt.Fprintf(out, "%s violations:\n", title)
		for _, v := range vs {
			fmt.Fprintf(out, "  %-18s %s\n", v.Monitor, v.Detail)
		}
	}
	list("recorded", recorded)
	if replayErr != nil {
		list("replay", got)
		return fmt.Errorf("replaying %s: %w", path, replayErr)
	}
	fmt.Fprintf(out, "reproduced %d violations byte-identically (%s)\n", len(got), stats)
	return nil
}
