package consensus

import (
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/metrics"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/stats"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// TestMonteCarloDeterministicAcrossWorkers pins the central reproducibility
// claim of the Monte Carlo runner: per-trial seeds are pure functions of
// (Seed, trial), and worker-local histograms merge losslessly, so any
// Workers/ChunkSize combination yields the identical aggregate. Each sweep
// compares its shapes against its first; the short sweeps cover perfbench's
// engine-mc job ({2, 8}), a sweep that fits under the default chunk
// ({2, 0}), and more workers than trials.
func TestMonteCarloDeterministicAcrossWorkers(t *testing.T) {
	flat := FlatConfig{Conciliator: ConcSifter, AC: ACRegister}
	type shape struct{ workers, chunk int64 }
	for _, sw := range []struct {
		n      int
		trials int64
		shapes []shape
	}{
		{16, 400, []shape{{1, 0}, {3, 37}, {8, 1}}},
		{64, 32, []shape{{1, 0}, {2, 8}, {2, 0}}},
		{64, 5, []shape{{1, 0}, {8, 0}, {8, 1}}},
	} {
		var ref *MCResult
		for _, wc := range sw.shapes {
			cfg := MCConfig{N: sw.n, Trials: sw.trials, Seed: 42, Sched: sched.KindRandom, Flat: flat,
				Workers: int(wc.workers), ChunkSize: wc.chunk}
			res, err := RunMonteCarlo(cfg)
			if err != nil {
				t.Fatalf("trials=%d workers=%d: %v", sw.trials, wc.workers, err)
			}
			if res.Agreed != res.Trials {
				t.Fatalf("trials=%d workers=%d: agreement failed in %d of %d trials",
					sw.trials, wc.workers, res.Trials-res.Agreed, res.Trials)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.TotalSteps != ref.TotalSteps || res.TotalSlots != ref.TotalSlots {
				t.Fatalf("trials=%d workers=%d chunk=%d: totals (%d,%d) != reference (%d,%d)",
					sw.trials, wc.workers, wc.chunk, res.TotalSteps, res.TotalSlots, ref.TotalSteps, ref.TotalSlots)
			}
			if res.Steps.N() != ref.Steps.N() || res.Steps.Sum() != ref.Steps.Sum() {
				t.Fatalf("trials=%d workers=%d chunk=%d: step histogram drifted", sw.trials, wc.workers, wc.chunk)
			}
			for _, q := range []float64{0.5, 0.9, 0.99, 1} {
				if res.Steps.Quantile(q) != ref.Steps.Quantile(q) ||
					res.MaxSteps.Quantile(q) != ref.MaxSteps.Quantile(q) ||
					res.Phases.Quantile(q) != ref.Phases.Quantile(q) {
					t.Fatalf("trials=%d workers=%d chunk=%d q=%v: quantiles drifted", sw.trials, wc.workers, wc.chunk, q)
				}
			}
		}
	}
}

// TestMonteCarloClaimsTileTrials replays RunMonteCarlo's claim loop on a
// plain counter: a worker reads the unclaimed count, sizes its claim with
// claimSize, and later adds the claim to the counter, which is what
// assigns the range. Three orders are replayed: one worker at a time
// (sequential), lockstep (every worker sizes its claim from the same
// stale count before any of them adds), and a seeded random
// interleaving. Whatever the order, the claims must cover [0, Trials)
// exactly once, each must hold 1..ChunkSize trials, the first must not
// exceed ⌈Trials/(2·workers)⌉, and the loop must end.
func TestMonteCarloClaimsTileTrials(t *testing.T) {
	cases := []struct {
		name    string
		trials  int64
		workers int
		chunk   int64
	}{
		{"trials<workers", 3, 8, 256},
		{"trials<chunk", 200, 2, 256},
		{"engine-mc", 32, 2, 8},
		{"chunk=1", 50, 3, 1},
		{"chunk>>trials", 5, 2, 1 << 40},
		{"one trial", 1, 4, 256},
		{"long", 100000, 4, 256},
	}
	orders := []string{"sequential", "lockstep", "random"}
	for _, c := range cases {
		for _, order := range orders {
			t.Run(c.name+"/"+order, func(t *testing.T) {
				workers := int(min(int64(c.workers), c.trials)) // as RunMonteCarlo clamps
				type worker struct {
					size int64 // the sized, not yet added claim; 0 before sizing
					done bool
				}
				ws := make([]worker, workers)
				rng := xrand.New(uint64(c.trials))
				seen := make([]int, c.trials)
				var next int64
				claims, live, turn := 0, workers, 0
				for steps := 0; live > 0; steps++ {
					if steps > 2*int(c.trials)+2*workers {
						t.Fatalf("claim loop did not end after %d steps", steps)
					}
					var wi int
					switch order {
					case "sequential":
						for ws[wi].done {
							wi++
						}
					case "lockstep":
						for wi = turn % workers; ws[wi].done; wi = (wi + 1) % workers {
						}
						turn = wi + 1
					default:
						for wi = rng.Intn(workers); ws[wi].done; wi = rng.Intn(workers) {
						}
					}
					w := &ws[wi]
					if w.size == 0 {
						w.size = claimSize(c.trials-next, c.chunk, workers)
						if w.size < 1 || w.size > c.chunk {
							t.Fatalf("claim of %d trials, want 1..%d", w.size, c.chunk)
						}
						if claims == 0 {
							if bound := (c.trials + 2*int64(workers) - 1) / (2 * int64(workers)); w.size > bound {
								t.Fatalf("first claim of %d trials, want <= %d", w.size, bound)
							}
						}
						claims++
						continue
					}
					next += w.size
					for tr := next - w.size; tr < min(next, c.trials); tr++ {
						seen[tr]++
					}
					w.size = 0
					if next >= c.trials {
						w.done = true
						live--
					}
				}
				for tr, k := range seen {
					if k != 1 {
						t.Fatalf("trial %d claimed %d times", tr, k)
					}
				}
			})
		}
	}
}

// TestMonteCarloMatchesDirectTrials pins the runner's per-trial wiring
// against directly driven flat runs with the same derived seeds.
func TestMonteCarloMatchesDirectTrials(t *testing.T) {
	cfg := MCConfig{
		N: 9, Trials: 50, Seed: 7, Sched: sched.KindRoundRobin,
		Flat:    FlatConfig{Conciliator: ConcPriorityMax, AC: ACSnapshot},
		Workers: 2,
	}
	res, err := RunMonteCarlo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewFlat(cfg.N, cfg.Flat)
	if err != nil {
		t.Fatal(err)
	}
	direct := newMCWorker(m)
	for trial := int64(0); trial < cfg.Trials; trial++ {
		if err := direct.runTrial(&cfg, trial); err != nil {
			t.Fatalf("direct trial %d: %v", trial, err)
		}
	}
	if direct.totalSteps != res.TotalSteps || direct.totalSlots != res.TotalSlots {
		t.Fatalf("direct totals (%d,%d) != runner (%d,%d)", direct.totalSteps, direct.totalSlots, res.TotalSteps, res.TotalSlots)
	}
	if direct.steps.Sum() != res.Steps.Sum() || direct.phases.Sum() != res.Phases.Sum() {
		t.Fatal("direct histograms drifted from runner aggregate")
	}
}

// TestMonteCarloRejectsBadConfig pins the validation paths.
func TestMonteCarloRejectsBadConfig(t *testing.T) {
	if _, err := RunMonteCarlo(MCConfig{N: 0, Trials: 1}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := RunMonteCarlo(MCConfig{N: 4, Trials: 0}); err == nil {
		t.Error("Trials=0 accepted")
	}
	if _, err := RunMonteCarlo(MCConfig{N: 4, Trials: 1, Sched: sched.KindRandom, Flat: FlatConfig{Conciliator: "bogus"}}); err == nil {
		t.Error("bad flat config accepted")
	}
	// An unknown schedule family is an error, not a panic in a worker
	// goroutine; the zero Kind is not defaulted to any family.
	for _, kind := range []sched.Kind{0, sched.Kind(99)} {
		if _, err := RunMonteCarlo(MCConfig{N: 4, Trials: 1, Sched: kind}); err == nil {
			t.Errorf("schedule %v accepted", kind)
		}
	}
}

// TestMonteCarloExactCounts pins the flat Monte Carlo aggregate for every
// schedule family at n=64: total steps and slots, agreement, and the
// p50/p99/max of the per-process step and phase distributions. The
// counts are a pure function of the seeds, so any change in how the flat
// driver consumes a schedule source (slots drawn, no-op slots skipped,
// budget accounting) or in how the machines step shows up here. Unlike
// FuzzFlatVsCoroutine, which compares two engines that run through the
// same slot loop (sim.FlatRunner), this catches a change to that loop.
func TestMonteCarloExactCounts(t *testing.T) {
	sifter := FlatConfig{Conciliator: ConcSifter, AC: ACRegister}
	priority := FlatConfig{Conciliator: ConcPriorityMax, AC: ACSnapshot}
	cases := []struct {
		flat          FlatConfig
		kind          sched.Kind
		steps, slots  int64
		agreed        int64
		stepQ, phaseQ [3]int64 // p50, p99, max
	}{
		{sifter, sched.KindRoundRobin, 39040, 39040, 32, [3]int64{18, 35, 35}, [3]int64{1, 2, 2}},
		{sifter, sched.KindRandom, 40017, 63318, 32, [3]int64{18, 35, 36}, [3]int64{1, 2, 2}},
		{sifter, sched.KindStaggered, 39125, 51010, 32, [3]int64{18, 36, 36}, [3]int64{1, 2, 2}},
		{sifter, sched.KindSplit, 39040, 45120, 32, [3]int64{18, 35, 35}, [3]int64{1, 2, 2}},
		{sifter, sched.KindZipf, 38972, 393171, 32, [3]int64{18, 35, 35}, [3]int64{1, 2, 2}},
		{sifter, sched.KindCrashHalf, 22029, 32604, 32, [3]int64{18, 35, 36}, [3]int64{1, 2, 2}},
		{priority, sched.KindRoundRobin, 32768, 32768, 32, [3]int64{16, 16, 16}, [3]int64{1, 1, 1}},
		{priority, sched.KindRandom, 32768, 53642, 32, [3]int64{16, 16, 16}, [3]int64{1, 1, 1}},
		{priority, sched.KindStaggered, 34032, 34800, 32, [3]int64{16, 32, 32}, [3]int64{1, 2, 2}},
		{priority, sched.KindSplit, 32768, 32768, 32, [3]int64{16, 16, 16}, [3]int64{1, 1, 1}},
		{priority, sched.KindZipf, 32768, 339796, 32, [3]int64{16, 16, 16}, [3]int64{1, 1, 1}},
		{priority, sched.KindCrashHalf, 19452, 29858, 32, [3]int64{16, 16, 16}, [3]int64{1, 1, 1}},
	}
	if len(cases) != 2*len(sched.Kinds()) {
		t.Fatalf("table covers %d cases, want every family for both protocols (%d)", len(cases), 2*len(sched.Kinds()))
	}
	for _, c := range cases {
		t.Run(c.flat.Conciliator+":"+c.flat.AC+"/"+c.kind.String(), func(t *testing.T) {
			res, err := RunMonteCarlo(MCConfig{N: 64, Trials: 32, Seed: 2012, Sched: c.kind, Flat: c.flat})
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalSteps != c.steps || res.TotalSlots != c.slots || res.Agreed != c.agreed {
				t.Errorf("steps/slots/agreed = %d/%d/%d, want %d/%d/%d",
					res.TotalSteps, res.TotalSlots, res.Agreed, c.steps, c.slots, c.agreed)
			}
			quantiles := func(h *stats.IntHist) [3]int64 {
				return [3]int64{h.Quantile(0.5), h.Quantile(0.99), h.Max()}
			}
			if got := quantiles(res.Steps); got != c.stepQ {
				t.Errorf("steps p50/p99/max = %v, want %v", got, c.stepQ)
			}
			if got := quantiles(res.Phases); got != c.phaseQ {
				t.Errorf("phases p50/p99/max = %v, want %v", got, c.phaseQ)
			}
		})
	}
}

// TestMonteCarloAllocsPerSweep pins the allocations of one short sweep
// (n=64, 32 trials, ChunkSize 8: perfbench's engine-mc job) at one and
// two workers. Per-sweep setup dominates: one machine, runner and three
// histograms per worker, plus the merged result. The count changes only
// when the code does, so it is gated exactly rather than timed.
func TestMonteCarloAllocsPerSweep(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if metrics.Enabled() {
		t.Skip("allocation counts require metrics to be disabled")
	}
	for _, c := range []struct {
		workers int
		budget  float64
	}{{1, 121}, {2, 150}} {
		cfg := MCConfig{N: 64, Trials: 32, ChunkSize: 8, Workers: c.workers, Sched: sched.KindRandom, Seed: 2012}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := RunMonteCarlo(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.budget {
			t.Errorf("workers=%d: %v allocs per sweep, want <= %v", c.workers, allocs, c.budget)
		}
		t.Logf("workers=%d: %v allocs per sweep", c.workers, allocs)
	}
}
