package main

import (
	"fmt"
	"io"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/sim"
)

// concurrentRecord is the machine-readable record written by
// -bench-concurrent-json. Its entry list uses the same shape and JSON key
// as benchRecord so -bench-concurrent-baseline can parse a committed
// record with the ordinary benchRecord decoder.
type concurrentRecord struct {
	Schema string `json:"schema"` // "conciliator-concurrent-bench/v1"
	hostShape
	OpsPerProc       int          `json:"ops_per_proc"`
	Runs             int          `json:"runs"`
	TotalWallSeconds float64      `json:"total_wall_seconds"`
	Experiments      []benchEntry `json:"experiments"`
}

const (
	// concurrentOpsPerProc is the fixed shared-memory operations each
	// process performs per run (4 object ops per loop iteration), chosen
	// so a run is long enough to amortize trial startup but short enough
	// that the full sweep stays in CI budget.
	concurrentOpsPerProc = 512
	// concurrentStepsRuns fixes the per-workload run count, keeping the
	// total modeled work deterministic so steps/s varies only with
	// machine speed — the same contract as controlledStepsRuns.
	concurrentStepsRuns = 16
)

// concurrentSizes are the process counts the concurrent sweep measures.
var concurrentSizes = []int{2, 8, 64}

// concurrentStepsEntries measures real multi-core throughput of the
// concurrent substrate: for each n, n goroutines hammer a shared
// register, max register, and snapshot through one reused
// ConcurrentRunner. Entries are keyed "concurrent-steps/n=<n>".
func concurrentStepsEntries() []benchEntry {
	var entries []benchEntry
	for _, n := range concurrentSizes {
		r := sim.NewConcurrentRunner(n, 0)
		var totalSteps int64
		start := time.Now()
		for i := 0; i < concurrentStepsRuns; i++ {
			reg := memory.NewRegister[int]()
			maxr := memory.NewMaxRegister[int]()
			snap := memory.NewSnapshot[int](n)
			res, err := r.Run(func(p *sim.Proc) {
				for k := 0; k < concurrentOpsPerProc; k++ {
					reg.Write(p, p.ID())
					reg.Read(p)
					maxr.WriteMax(p, uint64(k), p.ID())
					snap.Update(p, p.ID(), k)
				}
			}, sim.Config{AlgSeed: uint64(i) + 1})
			if err != nil {
				// The body is panic-free and fault-free; an error here is
				// a runner bug, not a measurement artifact.
				panic(err)
			}
			totalSteps += res.TotalSteps
		}
		r.Close()
		entries = append(entries, benchEntryOf(fmt.Sprintf("concurrent-steps/n=%d", n), time.Since(start).Seconds(), totalSteps, 0))
	}
	return entries
}

// buildConcurrentRecord runs the concurrent sweep and prints one line
// per entry.
func buildConcurrentRecord(out io.Writer) concurrentRecord {
	start := time.Now()
	rec := concurrentRecord{
		Schema:      "conciliator-concurrent-bench/v1",
		hostShape:   thisHost(),
		OpsPerProc:  concurrentOpsPerProc,
		Runs:        concurrentStepsRuns,
		Experiments: concurrentStepsEntries(),
	}
	rec.TotalWallSeconds = time.Since(start).Seconds()
	for _, e := range rec.Experiments {
		fmt.Fprintf(out, "bench-concurrent: %-34s %12.0f steps/s\n", e.ID, e.StepsPerSec)
	}
	return rec
}
