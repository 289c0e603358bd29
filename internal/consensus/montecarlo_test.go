package consensus

import (
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/stats"
)

// TestMonteCarloDeterministicAcrossWorkers pins the central reproducibility
// claim of the Monte Carlo runner: per-trial seeds are pure functions of
// (Seed, trial), and worker-local histograms merge losslessly, so any
// Workers/ChunkSize combination yields the identical aggregate.
func TestMonteCarloDeterministicAcrossWorkers(t *testing.T) {
	base := MCConfig{
		N: 16, Trials: 400, Seed: 42, Sched: sched.KindRandom,
		Flat: FlatConfig{Conciliator: ConcSifter, AC: ACRegister},
	}
	var ref *MCResult
	for _, wc := range []struct{ workers, chunk int64 }{{1, 0}, {3, 37}, {8, 1}} {
		cfg := base
		cfg.Workers = int(wc.workers)
		cfg.ChunkSize = wc.chunk
		res, err := RunMonteCarlo(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", wc.workers, err)
		}
		if res.Agreed != res.Trials {
			t.Fatalf("workers=%d: agreement failed in %d of %d trials", wc.workers, res.Trials-res.Agreed, res.Trials)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.TotalSteps != ref.TotalSteps || res.TotalSlots != ref.TotalSlots {
			t.Fatalf("workers=%d chunk=%d: totals (%d,%d) != reference (%d,%d)",
				wc.workers, wc.chunk, res.TotalSteps, res.TotalSlots, ref.TotalSteps, ref.TotalSlots)
		}
		if res.Steps.N() != ref.Steps.N() || res.Steps.Sum() != ref.Steps.Sum() {
			t.Fatalf("workers=%d: step histogram drifted", wc.workers)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 1} {
			if res.Steps.Quantile(q) != ref.Steps.Quantile(q) ||
				res.MaxSteps.Quantile(q) != ref.MaxSteps.Quantile(q) ||
				res.Phases.Quantile(q) != ref.Phases.Quantile(q) {
				t.Fatalf("workers=%d q=%v: quantiles drifted", wc.workers, q)
			}
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
	if _, err := RunMonteCarlo(MCConfig{N: 4, Trials: 1, Flat: FlatConfig{Conciliator: "bogus"}}); err == nil {
		t.Error("bad flat config accepted")
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
