package sim

import (
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/metrics"
	"github.com/oblivious-consensus/conciliator/internal/sched"
)

// TestControlledHotPathZeroAllocs pins the exclusive-substrate guarantee
// that controlled-mode shared-memory operations allocate nothing in
// steady state: register reads/writes, max-register operations, and
// buffer-reusing snapshot scans. A regression here silently reintroduces
// GC pressure proportional to modeled steps, which is exactly what the
// exclusive substrate exists to avoid.
func TestControlledHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if metrics.Enabled() {
		t.Skip("allocation counts require metrics to be disabled")
	}

	allocs := map[string]float64{}
	res, err := RunControlled(sched.NewRoundRobin(2), func(p *Proc) {
		if p.ID() != 0 {
			// A second process keeps the schedule honest (every op still
			// yields through the driver) without touching the objects.
			p.Step()
			return
		}
		if !p.Exclusive() {
			t.Error("controlled Proc is not exclusive")
		}
		reg := memory.NewRegister[int]()
		maxr := memory.NewMaxRegister[int]()
		snap := memory.NewSnapshot[int](8)
		snap.Update(p, 0, 42)
		buf := snap.ScanInto(p, nil)
		scratch := snap.ScanScratch(p) // warm the scratch arena
		_ = scratch

		allocs["Register.Write"] = testing.AllocsPerRun(64, func() { reg.Write(p, 7) })
		allocs["Register.Read"] = testing.AllocsPerRun(64, func() { reg.Read(p) })
		allocs["Register.CompareEmptyAndWrite"] = testing.AllocsPerRun(64, func() { reg.CompareEmptyAndWrite(p, 7) })
		allocs["MaxRegister.WriteMax"] = testing.AllocsPerRun(64, func() { maxr.WriteMax(p, 5, 1) })
		allocs["MaxRegister.ReadMax"] = testing.AllocsPerRun(64, func() { maxr.ReadMax(p) })
		allocs["Snapshot.Update"] = testing.AllocsPerRun(64, func() { snap.Update(p, 0, 9) })
		allocs["Snapshot.ScanInto"] = testing.AllocsPerRun(64, func() { buf = snap.ScanInto(p, buf) })
		allocs["Snapshot.ScanScratch"] = testing.AllocsPerRun(64, func() { _ = snap.ScanScratch(p) })
	}, Config{AlgSeed: 1})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !res.Finished[0] {
		t.Fatal("measuring process did not finish")
	}
	for op, n := range allocs {
		if n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", op, n)
		}
	}
}

// TestFlatRunnerSteadyStateZeroAllocs pins the flat engine's headline
// guarantee: with the runner, machine, Result, and schedule source all
// reused, a whole trial allocates nothing — not amortized-small like the
// coroutine engine's pooled state, but literally zero, which is what
// lets the Monte Carlo runner sustain millions of trials without GC
// pressure.
func TestFlatRunnerSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if metrics.Enabled() {
		t.Skip("allocation counts require metrics to be disabled")
	}

	m := newCountdown([]int{64, 64, 64, 64})
	fr := NewFlatRunner[*countdownMachine]()
	src := sched.NewRoundRobin(4) // stateless across trials: Next just keeps cycling
	var res Result
	run := func() {
		if err := fr.RunInto(src, m, Config{AlgSeed: 7}, &res); err != nil {
			t.Fatalf("run failed: %v", err)
		}
	}
	run() // size the runner's arenas and the Result slices
	if got := testing.AllocsPerRun(16, run); got != 0 {
		t.Errorf("flat runner steady state = %v allocs/run, want 0", got)
	}
}

// TestRunControlledSteadyStateAllocs pins the trial-state pooling: after
// warmup, a whole controlled run costs only the Result bookkeeping (a
// handful of fixed allocations), independent of step count — Proc, the
// runner's per-process arrays, RNG, and scratch all come from the pool.
func TestRunControlledSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if metrics.Enabled() {
		t.Skip("allocation counts require metrics to be disabled")
	}

	const n = 4
	body := func(p *Proc) {
		for i := 0; i < 256; i++ {
			p.Step()
		}
	}
	run := func() {
		if _, err := RunControlled(sched.NewRoundRobin(n), body, Config{AlgSeed: 7}); err != nil {
			t.Fatalf("run failed: %v", err)
		}
	}
	run() // warm the pool
	// Fixed per-run costs: the schedule source, Result slices, and the
	// iter.Pull coroutine handles (two closures + coroutine each). The
	// bound is deliberately generous but step-count-independent: 1024
	// steps per run must not show up in it.
	const budget = 16 * n
	if got := testing.AllocsPerRun(16, run); got > budget {
		t.Errorf("RunControlled steady state = %v allocs/run, want <= %d", got, budget)
	}
}
