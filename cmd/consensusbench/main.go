// Command consensusbench runs the paper-reproduction experiments E1-E21
// and prints their tables. The -service*, -mc*, -attack*, -des* and
// -fault* flags each select a standalone mode instead; one run drives
// one mode, and a flag the mode does not read is an error.
//
// Usage:
//
//	consensusbench -list
//	consensusbench -experiment E4 -trials 200 -format markdown
//	consensusbench -all -quick
//
// Each experiment is deterministic in (-seed, -trials); see EXPERIMENTS.md
// for the interpretation of every table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/experiment"
	"github.com/oblivious-consensus/conciliator/internal/metrics"
	"github.com/oblivious-consensus/conciliator/internal/metrics/debugserver"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// benchRecord is the machine-readable perf record written by -bench-json.
// Steps and slots come from the simulator's process-wide counters sampled
// around each experiment, so they cover every trial the experiment ran.
type benchRecord struct {
	Schema      string `json:"schema"` // "conciliator-bench/v1"
	Seed        uint64 `json:"seed"`
	Quick       bool   `json:"quick"`
	Trials      int    `json:"trials,omitempty"`
	Parallelism int    `json:"parallelism"`
	hostShape
	TotalWallSeconds float64      `json:"total_wall_seconds"`
	Experiments      []benchEntry `json:"experiments"`
}

type benchEntry struct {
	ID          string  `json:"id"`
	WallSeconds float64 `json:"wall_seconds"`
	Steps       int64   `json:"steps"`
	Slots       int64   `json:"slots"`
	StepsPerSec float64 `json:"steps_per_sec"`
	SlotsPerSec float64 `json:"slots_per_sec"`
}

// metricsRecord is the machine-readable observability record written by
// -metrics-json: one registry-snapshot delta per experiment (counters
// restricted to what that experiment moved) plus the suite-wide totals.
type metricsRecord struct {
	Schema      string `json:"schema"` // "conciliator-metrics/v1"
	Seed        uint64 `json:"seed"`
	Quick       bool   `json:"quick"`
	Trials      int    `json:"trials,omitempty"`
	Parallelism int    `json:"parallelism"`
	hostShape
	Experiments []metricsEntry   `json:"experiments"`
	Totals      metrics.Snapshot `json:"totals"`
}

type metricsEntry struct {
	ID      string           `json:"id"`
	Metrics metrics.Snapshot `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "consensusbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("consensusbench", flag.ContinueOnError)
	var (
		list         = fs.Bool("list", false, "list experiments and exit")
		expID        = fs.String("experiment", "", "experiment id(s) to run, comma-separated (E1..E21)")
		all          = fs.Bool("all", false, "run every experiment")
		trials       = fs.Int("trials", 0, "trials per configuration (0 = per-experiment default)")
		seed         = fs.Uint64("seed", 0, "master seed (0 = default)")
		quick        = fs.Bool("quick", false, "small sweeps for a fast smoke run")
		format       = fs.String("format", "text", "output format: text, markdown, or tsv")
		timings      = fs.Bool("timings", false, "print wall-clock time per experiment")
		parallel     = fs.Int("parallel", 0, "trial workers per experiment (0 = NumCPU); results are identical for any value")
		benchOut     = fs.String("bench-json", "", "write a JSON perf record (steps/sec, slots/sec, wall time per experiment) to this path")
		metricsOut   = fs.String("metrics-json", "", "write a JSON metrics record (per-object op counts, phase step attribution, histograms) to this path")
		metricsTable = fs.Bool("metrics", false, "print the metrics table after the run")
		debugAddr    = fs.String("debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060) while experiments run")
	)
	var ff faultFlags
	fs.StringVar(&ff.spec, "fault", "", "run the fault-injection sweep over these fault kinds (comma-separated: all, stutter, stall, crash-recovery, atomic, regular, safe)")
	fs.IntVar(&ff.trials, "fault-trials", 0, "trials per fault-matrix cell (0 = default)")
	fs.IntVar(&ff.n, "fault-n", 0, "processes per faulted trial (0 = default 8)")
	fs.StringVar(&ff.scheds, "fault-sched", "", "schedule kinds for the fault sweep, comma-separated (default: all kinds)")
	fs.IntVar(&ff.stutter, "fault-stutter", 0, "max stutter/stall length and staleness depth per fault event (0 = default)")
	fs.StringVar(&ff.jsonOut, "fault-json", "", "write a JSON fault-sweep report to this path")
	fs.StringVar(&ff.repros, "fault-repros", "", "save shrunk counterexample artifacts under this directory")
	fs.IntVar(&ff.shrink, "fault-shrink", 0, "shrink budget (replays per counterexample; 0 = default)")
	fs.StringVar(&ff.replay, "fault-replay", "", "replay a saved counterexample artifact (conciliator-fault-repro/v1 or des-fault-repro/v1) and confirm its recorded violations reproduce exactly")
	var af attackFlags
	fs.StringVar(&af.spec, "attack", "", "run the oblivious adversary search over these protocols (comma-separated: all, sifter, priority)")
	fs.StringVar(&af.jsonOut, "attack-json", "", "write an attack-record/v1 artifact per searched protocol (multi-protocol runs insert _<protocol> before the extension)")
	fs.StringVar(&af.replay, "attack-replay", "", "replay a committed attack-record/v1 artifact and verify it regenerates byte-identically")
	fs.IntVar(&af.n, "attack-n", 0, "processes per searched schedule (0 = default 8, quick 4)")
	fs.IntVar(&af.budget, "attack-budget", 0, "candidate evaluations per search (0 = default 64, quick 16)")
	fs.IntVar(&af.trials, "attack-trials", 0, "trials per candidate evaluation (0 = default 4, quick 2)")
	fs.BoolVar(&af.faults, "attack-faults", false, "let the search add stutter/stall fault-schedule components to candidates")
	var mf mcFlags
	fs.StringVar(&mf.spec, "mc", "", "run the flat-engine Monte Carlo sweep over these protocols (comma-separated conciliator:adopt-commit pairs, or all)")
	fs.IntVar(&mf.n, "mc-n", 0, "processes per Monte Carlo trial (0 = default 16)")
	fs.Int64Var(&mf.trials, "mc-trials", 0, "Monte Carlo trials per protocol (0 = default 1000000, quick 20000)")
	fs.StringVar(&mf.schedK, "mc-sched", "", "schedule kind driving the Monte Carlo trials (default random)")
	fs.StringVar(&mf.jsonOut, "mc-json", "", "write a conciliator-mc/v1 JSON record of the Monte Carlo sweep to this path")
	var sf serviceFlags
	fs.BoolVar(&sf.load, "service-load", false, "run the consensus-as-a-service load generator (in-process node, or remote with -service-addr)")
	fs.StringVar(&sf.shards, "service-shards", "", "comma-separated shard counts to sweep in-process (default 1,4)")
	fs.IntVar(&sf.pipeline, "service-pipeline", 0, "in-flight consensus slots per shard (0 = service default)")
	fs.IntVar(&sf.batchMax, "service-batch-max", 0, "max ops per consensus slot (0 = service default)")
	fs.IntVar(&sf.queue, "service-queue", 0, "per-shard intake queue depth (0 = service default)")
	fs.IntVar(&sf.clients, "service-clients", 0, "concurrent closed-loop clients (0 = default 16, quick 8)")
	fs.DurationVar(&sf.duration, "service-duration", 0, "load duration per configuration (0 = default 2s, quick 500ms)")
	fs.Float64Var(&sf.readFrac, "service-read-frac", 0, "fraction of ops that are reads (0 = default 0.25)")
	fs.IntVar(&sf.keys, "service-keys", 0, "keyspace size (0 = default 1024)")
	fs.StringVar(&sf.skew, "service-skew", "", "key popularity: uniform or zipf (default uniform)")
	fs.StringVar(&sf.protocol, "service-protocol", "", "consensus construction per slot: register, snapshot, or linear (default register)")
	fs.StringVar(&sf.addr, "service-addr", "", "drive a running consensusd at this address over HTTP instead of an in-process node")
	fs.StringVar(&sf.jsonOut, "service-json", "", "write an rsm-service/v1 JSON load record to this path")
	var df desFlags
	fs.BoolVar(&df.run, "des", false, "run the discrete-event message-passing sweep (steps vs n at n up to 100k)")
	fs.StringVar(&df.jsonOut, "des-json", "", "write the DES sweep's JSON record to this path")
	fs.StringVar(&df.ns, "des-n", "", "comma-separated process counts for the DES sweep (default 1000,10000,100000)")
	fs.StringVar(&df.protocols, "des-protocols", "", "comma-separated DES protocols (default sifter,sifter-half,priority-max)")
	fs.IntVar(&df.trials, "des-trials", 0, "trials per DES configuration (0 = default 5)")
	fs.StringVar(&df.latency, "des-latency", "", "DES latency distribution kind:mean, kinds fixed|uniform|exp (default exp:1ms)")
	fs.Float64Var(&df.loss, "des-loss", 0, "DES per-message loss probability in [0, 0.99]")
	fs.StringVar(&df.partitions, "des-partition", "", "comma-separated DES partitions from:until:frac (e.g. 5ms:25ms:0.3)")
	fs.StringVar(&df.crash, "des-crash", "", "DES crash schedule proc:<rate>,server:<windows> (e.g. proc:0.2,server:1)")
	fs.StringVar(&df.restart, "des-restart", "", "DES restart variant: durable, amnesiac, or amnesiac-server (default durable)")
	fs.StringVar(&df.repros, "des-fault-repros", "", "write shrunk des-fault-repro/v1 artifacts for violating chaos runs into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *seed == 0 {
		*seed = xrand.DefaultSeed
	}
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	mode, err := pickMode(set)
	if err != nil {
		return err
	}
	// Validate the output format up front: a typo must not burn a full
	// (minutes-long) run before erroring.
	switch *format {
	case "text", "markdown", "tsv":
	default:
		return fmt.Errorf("unknown format %q (want text, markdown, or tsv)", *format)
	}
	// Every mode that reads -trials takes 0 as its default, so a negative
	// count would otherwise run the default silently.
	if *trials < 0 {
		return fmt.Errorf("-trials must be non-negative, got %d", *trials)
	}
	if mode != nil {
		switch mode.prefix {
		case "service":
			return runServiceLoad(out, &sf, *seed, *quick, *format, *debugAddr)
		case "mc":
			return runMCSweep(out, &mf, *seed, *quick, *parallel, *format)
		case "attack":
			if af.replay != "" {
				return runAttackReplay(out, af.replay, *parallel)
			}
			return runAttackSearch(out, &af, *seed, *quick, *parallel, *format)
		case "des":
			if df.trials == 0 {
				df.trials = *trials
			}
			return runDESSweep(out, &df, *seed, *format)
		default: // fault
			if ff.replay != "" {
				return runFaultReplay(out, ff.replay)
			}
			if ff.trials == 0 {
				ff.trials = *trials
			}
			return runFaultSweep(out, &ff, experiment.Params{Seed: *seed, Quick: *quick, Parallelism: *parallel})
		}
	}

	if *list {
		for _, e := range experiment.All() {
			fmt.Fprintf(out, "%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}

	var todo []experiment.Experiment
	switch {
	case *all:
		todo = experiment.All()
	case *expID != "":
		todo, err = parseList("experiment", "experiment ids", *expID, func(id string) (experiment.Experiment, error) {
			e, ok := experiment.ByID(strings.ToUpper(id))
			if !ok {
				return e, fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			return e, nil
		})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("nothing to do: pass -experiment <id>, -all, or -list")
	}

	// Any observability output needs a live registry. A fresh one per run
	// keeps the deltas clean when run is driven repeatedly (tests).
	wantMetrics := *metricsOut != "" || *metricsTable || *debugAddr != ""
	if wantMetrics {
		metrics.SetDefault(metrics.New())
	}
	if *debugAddr != "" {
		addr, shutdown, err := debugserver.Start(*debugAddr)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer shutdown()
		fmt.Fprintf(out, "debug server on http://%s/debug/vars (pprof under /debug/pprof/)\n", addr)
	}

	params := experiment.Params{Trials: *trials, Seed: *seed, Quick: *quick, Parallelism: *parallel}
	rec := benchRecord{
		Schema:      "conciliator-bench/v1",
		Seed:        *seed,
		Quick:       *quick,
		Trials:      *trials,
		Parallelism: *parallel,
		hostShape:   thisHost(),
	}
	if rec.Parallelism == 0 {
		rec.Parallelism = runtime.NumCPU()
	}
	mrec := metricsRecord{
		Schema:      "conciliator-metrics/v1",
		Seed:        rec.Seed,
		Quick:       *quick,
		Trials:      *trials,
		Parallelism: rec.Parallelism,
		hostShape:   rec.hostShape,
	}
	suiteStart := time.Now()
	for _, e := range todo {
		steps0, slots0 := sim.Counters()
		mPrev := metrics.Default().Snapshot()
		start := time.Now()
		tables := e.Run(params)
		wall := time.Since(start)
		steps1, slots1 := sim.Counters()
		if wantMetrics {
			mrec.Experiments = append(mrec.Experiments, metricsEntry{
				ID:      e.ID,
				Metrics: metrics.Default().Snapshot().Sub(mPrev),
			})
		}
		for i := range tables {
			printTable(out, &tables[i], *format)
		}
		if *timings {
			fmt.Fprintf(out, "[%s took %v]\n\n", e.ID, wall.Round(time.Millisecond))
		}
		rec.Experiments = append(rec.Experiments, benchEntryOf(e.ID, wall.Seconds(), steps1-steps0, slots1-slots0))
	}
	if *benchOut != "" {
		// The controlled-steps microbenchmarks measure raw simulator
		// throughput independent of any protocol: experiment entries are
		// dominated by protocol statistics, these by the engine. The
		// flat-steps entries run the same workloads on the flat
		// state-machine engine; the ratio between the two prefixes in one
		// record is the interpreter speedup on identical modeled work.
		rec.Experiments = append(rec.Experiments, controlledStepsEntries()...)
		rec.Experiments = append(rec.Experiments, flatStepsEntries()...)
		rec.TotalWallSeconds = time.Since(suiteStart).Seconds()
		if err := writeJSON(*benchOut, "bench", rec); err != nil {
			return err
		}
	}
	if wantMetrics {
		mrec.Totals = metrics.Default().Snapshot()
	}
	if *metricsTable {
		fmt.Fprintf(out, "metrics:\n%s", mrec.Totals.Text())
	}
	if *metricsOut != "" {
		return writeJSON(*metricsOut, "metrics", mrec)
	}
	return nil
}

// printTable renders t in the output format every mode shares.
func printTable(out io.Writer, t *experiment.Table, format string) {
	switch format {
	case "markdown":
		fmt.Fprintln(out, t.Markdown())
	case "tsv":
		fmt.Fprintf(out, "# %s: %s\n%s\n", t.ID, t.Title, t.TSV())
	default:
		fmt.Fprintln(out, t.Text())
	}
}

// writeJSON writes the record v to path as indented JSON, the layout of
// every record this command writes; what names the record in errors.
func writeJSON(path, what string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s record: %w", what, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s record: %w", what, err)
	}
	return nil
}

// hostShape is the measuring host, carried by every record that holds
// wall-clock figures. Those figures are informational: they are read in
// the context of the host that measured them, and no gate compares them.
type hostShape struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func thisHost() hostShape {
	return hostShape{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// controlledStepsRuns is the fixed per-workload run count of the
// controlled-steps microbenchmarks: the modeled work is deterministic,
// so an entry's steps and slots are exact and steps/s varies only with
// machine speed.
const controlledStepsRuns = 64

// stepsWorkloads are the controlled-steps microbenchmark workloads, the
// same four as BenchmarkControlledSteps, run on both engines.
var stepsWorkloads = []struct {
	name  string
	n     int
	steps func(pid int) int
	mk    func(n int, seed uint64) sched.Source
}{
	{
		name:  "round-robin/n=8",
		n:     8,
		steps: func(int) int { return 2048 },
		mk:    func(n int, _ uint64) sched.Source { return sched.NewRoundRobin(n) },
	},
	{
		name:  "round-robin/n=64",
		n:     64,
		steps: func(int) int { return 256 },
		mk:    func(n int, _ uint64) sched.Source { return sched.NewRoundRobin(n) },
	},
	{
		name:  "random/n=64",
		n:     64,
		steps: func(int) int { return 256 },
		mk:    func(n int, seed uint64) sched.Source { return sched.NewRandom(n, xrand.New(seed)) },
	},
	{
		name: "skewed-tail/n=64",
		n:    64,
		steps: func(pid int) int {
			if pid == 0 {
				return 4096
			}
			return 1
		},
		mk: func(n int, _ uint64) sched.Source { return sched.NewRoundRobin(n) },
	},
}

// benchEntryOf is the bench entry for steps and slots done in secs.
func benchEntryOf(id string, secs float64, steps, slots int64) benchEntry {
	e := benchEntry{ID: id, WallSeconds: secs, Steps: steps, Slots: slots}
	if secs > 0 {
		e.StepsPerSec = float64(steps) / secs
		e.SlotsPerSec = float64(slots) / secs
	}
	return e
}

// controlledStepsEntries runs stepsWorkloads on the coroutine engine and
// returns one bench entry per workload under the "controlled-steps/" id
// prefix.
func controlledStepsEntries() []benchEntry {
	entries := make([]benchEntry, 0, len(stepsWorkloads))
	for _, tc := range stepsWorkloads {
		var totalSteps, totalSlots int64
		start := time.Now()
		for i := 0; i < controlledStepsRuns; i++ {
			res, err := sim.RunControlled(tc.mk(tc.n, uint64(i)+1), func(p *sim.Proc) {
				for s := tc.steps(p.ID()); s > 0; s-- {
					p.Step()
				}
			}, sim.Config{AlgSeed: uint64(i) + 1})
			if err != nil {
				// The workloads are infinite-schedule and tiny relative to
				// the slot budget; an error here is a simulator bug, not a
				// measurement artifact.
				panic(err)
			}
			totalSteps += res.TotalSteps
			totalSlots += res.Slots
		}
		entries = append(entries, benchEntryOf("controlled-steps/"+tc.name, time.Since(start).Seconds(), totalSteps, totalSlots))
	}
	return entries
}
