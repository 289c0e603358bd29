package experiment

import (
	"encoding/json"
	"reflect"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/sched"
)

// TestFaultTrialAtomicCellsQuiet is the acceptance criterion for the
// monitors' soundness: under atomic register semantics every process
// fault (stutter, stall, crash-recovery with amnesia) is within the
// model the algorithms tolerate, so the safety monitors must never fire
// — for any schedule family, on either workload.
func TestFaultTrialAtomicCellsQuiet(t *testing.T) {
	for _, pf := range []fault.ProcFault{fault.ProcNone, fault.ProcStutter, fault.ProcStall, fault.ProcCrashRecover} {
		for _, w := range FaultWorkloads() {
			for _, kind := range sched.Kinds() {
				for seed := uint64(1); seed <= 3; seed++ {
					schedule, err := fault.Plan{N: 6, Seed: seed, Semantics: fault.SemAtomic, Proc: pf}.Generate()
					if err != nil {
						t.Fatal(err)
					}
					res := RunFaultTrial(FaultTrialSpec{
						N: 6, SchedKind: kind, SchedSeed: seed * 31, AlgSeed: seed * 17,
						Workload: w, Fault: schedule,
					})
					if len(res.Violations) != 0 {
						t.Errorf("atomic cell %v/%v/%v seed %d violated: %v",
							pf, kind, w, seed, res.Violations)
					}
				}
			}
		}
	}
}

func TestFaultTrialDeterministic(t *testing.T) {
	schedule, err := fault.Plan{N: 5, Seed: 3, Semantics: fault.SemSafe, Proc: fault.ProcCrashRecover}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	spec := FaultTrialSpec{N: 5, SchedKind: sched.KindRandom, SchedSeed: 11, AlgSeed: 13,
		Workload: WorkloadConsensus, Fault: schedule}
	a, b := RunFaultTrial(spec), RunFaultTrial(spec)
	if !reflect.DeepEqual(a.Violations, b.Violations) {
		t.Errorf("violations diverged:\n%v\nvs\n%v", a.Violations, b.Violations)
	}
	if a.Res.TotalSteps != b.Res.TotalSteps || a.Res.Restarts != b.Res.Restarts || a.Res.Faults != b.Res.Faults {
		t.Errorf("results diverged: %+v vs %+v", a.Res, b.Res)
	}
}

func TestFaultTrialUnknownWorkload(t *testing.T) {
	schedule, err := fault.Plan{N: 2, Seed: 1}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	res := RunFaultTrial(FaultTrialSpec{N: 2, SchedKind: sched.KindRoundRobin, Workload: "nope", Fault: schedule})
	if len(res.Violations) == 0 || res.Violations[0].Monitor != "panic" {
		t.Errorf("unknown workload not reported: %v", res.Violations)
	}
}

// TestFaultSweepShrinksAndReplays drives the whole loop on a weakened
// cell known to violate: sweep finds violations, the shrinker reduces
// them to small artifacts, the artifacts save to disk, load back, and
// replay to the same violations.
func TestFaultSweepShrinksAndReplays(t *testing.T) {
	dir := t.TempDir()
	results := RunFaultSweep(FaultSweepConfig{
		Params:    Params{Parallelism: 1},
		Trials:    12,
		Semantics: []fault.Semantics{fault.SemSafe},
		Procs:     []fault.ProcFault{fault.ProcNone, fault.ProcStutter},
		Kinds:     []sched.Kind{sched.KindRoundRobin, sched.KindRandom},
		Workloads: []string{WorkloadMaxReg},
		Shrink:    2048,
		ReproDir:  dir,
	})
	var repros []*fault.Repro[fault.SlotRun]
	violated := 0
	for _, cr := range results {
		violated += cr.Violated
		repros = append(repros, cr.Repros...)
	}
	if violated == 0 {
		t.Fatal("safe-register maxreg cells produced no violations: monitors are vacuous or faults are not injected")
	}
	if len(repros) == 0 {
		t.Fatal("violations found but no repros shrunk")
	}
	for _, r := range repros {
		if r.Run.Fault.Len() > 64 {
			t.Errorf("shrunk schedule still has %d events", r.Run.Fault.Len())
		}
		if r.SavedPath == "" {
			t.Fatal("repro not saved")
		}
		loaded, err := fault.LoadRepro[fault.SlotRun](r.SavedPath)
		if err != nil {
			t.Fatalf("loading %s: %v", r.SavedPath, err)
		}
		res, err := ReplayRepro(loaded)
		if err != nil {
			t.Fatalf("replaying %s: %v", r.SavedPath, err)
		}
		if !reflect.DeepEqual(res.Violations, loaded.Violations) {
			t.Errorf("replay of %s diverged from recorded violations:\n%v\nvs\n%v",
				r.SavedPath, res.Violations, loaded.Violations)
		}
		// The replay rule is exact: recording fewer violations than the
		// replay produces is a divergence, not a pass.
		fewer := *loaded
		fewer.Violations = loaded.Violations[:len(loaded.Violations)-1]
		if len(fewer.Violations) == 0 {
			fewer.Violations = []fault.Violation{{Monitor: "panic", Detail: "never fired"}}
		}
		if _, err := ReplayRepro(&fewer); err == nil {
			t.Errorf("replay of %s accepted with recorded violations %v, replayed %v",
				r.SavedPath, fewer.Violations, res.Violations)
		}
	}
}

// TestFaultSweepParallelismInvariant: trial results must not depend on
// the worker count, or repro artifacts would not be reproducible from
// the sweep's own seeds.
func TestFaultSweepParallelismInvariant(t *testing.T) {
	cfg := FaultSweepConfig{
		Trials:    8,
		Semantics: []fault.Semantics{fault.SemRegular},
		Procs:     []fault.ProcFault{fault.ProcStall},
		Kinds:     []sched.Kind{sched.KindRandom},
	}
	summarize := func(parallelism int) string {
		c := cfg
		c.Params = Params{Parallelism: parallelism}
		data, err := json.Marshal(RunFaultSweep(c))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if one, many := summarize(1), summarize(7); one != many {
		t.Errorf("sweep results differ across parallelism:\n%s\nvs\n%s", one, many)
	}
}

func TestReplayReproRejectsUnknownNames(t *testing.T) {
	schedule, err := fault.Plan{N: 2, Seed: 1, Semantics: fault.SemSafe}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	base := fault.Repro[fault.SlotRun]{
		N:          2,
		Run:        fault.SlotRun{Sched: "round-robin", Workload: WorkloadMaxReg, Fault: schedule},
		Violations: []fault.Violation{{Monitor: "panic", Detail: "x"}},
	}
	bad := base
	bad.Run.Sched = "warp-speed"
	if _, err := ReplayRepro(&bad); err == nil {
		t.Error("unknown sched kind accepted")
	}
	bad = base
	bad.Run.Workload = "mystery"
	if _, err := ReplayRepro(&bad); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestE17Registered: the reduced matrix runs as a first-class
// experiment, so -all and the nightly suite cover it.
func TestE17Registered(t *testing.T) {
	e, ok := ByID("E17")
	if !ok {
		t.Fatal("E17 not registered")
	}
	tables := e.Run(Params{Quick: true, Trials: 2})
	if len(tables) != 1 || tables[0].ID != "E17" {
		t.Fatalf("tables = %+v", tables)
	}
	// quick mode: 3 semantics x 4 proc faults x 2 kinds x 2 workloads.
	if got := len(tables[0].Rows); got != 48 {
		t.Errorf("E17 quick rows = %d, want 48", got)
	}
}
