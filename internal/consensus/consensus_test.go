package consensus

import (
	"fmt"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/adoptcommit"
	"github.com/oblivious-consensus/conciliator/internal/conciliator"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// runConsensus executes one Propose per process and returns outputs of
// finished processes.
func runConsensus[V comparable](t *testing.T, c *Protocol[V], inputs []V, src sched.Source, seed uint64) ([]V, sim.Result) {
	t.Helper()
	outs, finished, res, err := sim.Collect(src, sim.Config{AlgSeed: seed}, func(p *sim.Proc) V {
		return c.Propose(p, inputs[p.ID()])
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	var done []V
	for i, out := range outs {
		if finished[i] {
			done = append(done, out)
		}
	}
	return done, res
}

func checkConsensus[V comparable](t *testing.T, inputs, outputs []V, label string) {
	t.Helper()
	if len(outputs) == 0 {
		t.Fatalf("%s: no outputs", label)
	}
	set := make(map[V]bool, len(inputs))
	for _, v := range inputs {
		set[v] = true
	}
	for _, o := range outputs {
		if !set[o] {
			t.Fatalf("%s: validity violated: output %v", label, o)
		}
		if o != outputs[0] {
			t.Fatalf("%s: agreement violated: %v vs %v", label, o, outputs[0])
		}
	}
}

func distinct(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = i
	}
	return in
}

type factory struct {
	name string
	mk   func(n int) *Protocol[int]
}

func factories() []factory {
	return []factory{
		{name: "snapshot", mk: NewSnapshot[int]},
		{name: "register", mk: NewRegister[int]},
		{name: "linear", mk: NewLinear[int]},
		{name: "cil-baseline", mk: NewCILBaseline[int]},
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing factories")
		}
	}()
	New[int](2, Config[int]{})
}

func TestConsensusAgreementAndValidityAllFactories(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			rng := xrand.New(7)
			for trial := 0; trial < 30; trial++ {
				n := 2 + rng.Intn(20)
				c := f.mk(n)
				inputs := distinct(n)
				outs, _ := runConsensus(t, c, inputs, sched.NewRandom(n, xrand.New(rng.Uint64())), rng.Uint64())
				checkConsensus(t, inputs, outs, fmt.Sprintf("%s trial %d n=%d", f.name, trial, n))
			}
		})
	}
}

func TestConsensusAllSameInputOnePhase(t *testing.T) {
	// With identical inputs, the first adopt-commit must commit
	// immediately (conciliator validity + adopt-commit convergence).
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			const n = 8
			c := f.mk(n)
			inputs := make([]int, n)
			for i := range inputs {
				inputs[i] = 42
			}
			outs, _ := runConsensus(t, c, inputs, sched.NewRandom(n, xrand.New(3)), 5)
			checkConsensus(t, inputs, outs, f.name)
			if outs[0] != 42 {
				t.Fatalf("decided %d, want 42", outs[0])
			}
			if got := c.MaxPhases(); got != 1 {
				t.Fatalf("max phases %d, want 1", got)
			}
		})
	}
}

func TestConsensusExpectedPhasesSmall(t *testing.T) {
	// Expected phases is O(1); over many trials the mean should stay
	// tiny and the max modest.
	const n, trials = 16, 40
	rng := xrand.New(11)
	totalMean := 0.0
	worst := 0
	for trial := 0; trial < trials; trial++ {
		c := NewSnapshot[int](n)
		runConsensus(t, c, distinct(n), sched.NewRandom(n, xrand.New(rng.Uint64())), rng.Uint64())
		totalMean += c.MeanPhases()
		if m := c.MaxPhases(); m > worst {
			worst = m
		}
	}
	if avg := totalMean / trials; avg > 3 {
		t.Fatalf("average phases %v, want O(1) (about <= 3)", avg)
	}
	if worst > 10 {
		t.Fatalf("worst-case phases %d across %d trials", worst, trials)
	}
}

func TestConsensusAgreementUnderAllScheduleKinds(t *testing.T) {
	const n = 12
	inputs := distinct(n)
	for _, kind := range sched.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			for _, f := range factories() {
				for trial := 0; trial < 5; trial++ {
					c := f.mk(n)
					outs, _ := runConsensus(t, c, inputs, sched.New(kind, n, uint64(100+trial)), uint64(trial))
					checkConsensus(t, inputs, outs, f.name+"/"+kind.String())
				}
			}
		})
	}
}

func TestConsensusAgreementWithCrashes(t *testing.T) {
	// Survivors must agree even when half the processes crash mid-run.
	rng := xrand.New(13)
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(12)
		c := NewRegister[int](n)
		inputs := distinct(n)
		outs, _ := runConsensus(t, c, inputs, sched.NewCrashHalf(n, xrand.New(rng.Uint64())), rng.Uint64())
		checkConsensus(t, inputs, outs, fmt.Sprintf("crash trial %d", trial))
	}
}

func TestConsensusBinaryInputs(t *testing.T) {
	rng := xrand.New(17)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(14)
		c := NewLinear[int](n)
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = rng.Intn(2)
		}
		outs, _ := runConsensus(t, c, inputs, sched.NewRandom(n, xrand.New(rng.Uint64())), rng.Uint64())
		checkConsensus(t, inputs, outs, fmt.Sprintf("binary trial %d", trial))
	}
}

func TestConsensusStringValues(t *testing.T) {
	const n = 6
	c := NewRegister[string](n)
	inputs := []string{"apple", "banana", "cherry", "date", "elder", "fig"}
	outs, _ := runConsensus(t, c, inputs, sched.NewRandom(n, xrand.New(19)), 23)
	checkConsensus(t, inputs, outs, "strings")
}

func TestConsensusDeterministicGivenSeeds(t *testing.T) {
	const n = 10
	run := func() []int {
		c := NewSnapshot[int](n)
		outs, _ := runConsensus(t, c, distinct(n), sched.NewRandom(n, xrand.New(29)), 31)
		return outs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outputs diverge: %v vs %v", a, b)
		}
	}
}

func TestConsensusConcurrentMode(t *testing.T) {
	const n = 16
	c := NewLinear[int](n)
	inputs := distinct(n)
	outs, _, err := sim.CollectConcurrent(n, sim.Config{AlgSeed: 37}, func(p *sim.Proc) int {
		return c.Propose(p, inputs[p.ID()])
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConsensus(t, inputs, outs, "concurrent")
}

func TestConsensusIndividualStepsScaleSublinearly(t *testing.T) {
	// The headline result: expected individual steps grow like log* n
	// (snapshot) and log log n + AC (register), so doubling n repeatedly
	// should leave per-process steps nearly flat. Compare n=8 vs n=256:
	// allow generous noise but reject linear growth (32x).
	type case_ struct {
		name string
		mk   func(n int) *Protocol[int]
	}
	for _, tc := range []case_{{"snapshot", NewSnapshot[int]}, {"register", NewRegister[int]}} {
		t.Run(tc.name, func(t *testing.T) {
			mean := func(n, trials int, seed uint64) float64 {
				rng := xrand.New(seed)
				var total int64
				var procs int64
				for trial := 0; trial < trials; trial++ {
					c := tc.mk(n)
					_, res := runConsensus(t, c, distinct(n), sched.NewRandom(n, xrand.New(rng.Uint64())), rng.Uint64())
					total += res.TotalSteps
					procs += int64(n)
				}
				return float64(total) / float64(procs)
			}
			small := mean(8, 10, 41)
			large := mean(256, 5, 43)
			if large > 6*small {
				t.Fatalf("per-process steps grew from %v (n=8) to %v (n=256); not sublinear", small, large)
			}
		})
	}
}

func TestMeanPhasesZeroBeforeUse(t *testing.T) {
	c := NewSnapshot[int](4)
	if c.MeanPhases() != 0 || c.MaxPhases() != 0 {
		t.Fatal("phase metrics nonzero before any propose")
	}
}

func TestCustomConfigPhaseFactoriesReceiveIndices(t *testing.T) {
	var phaseIdx []int
	const n = 4
	c := New(n, Config[int]{
		NewConciliator: func(k int) conciliator.Interface[int] {
			phaseIdx = append(phaseIdx, k)
			return conciliator.NewSifter[int](n, conciliator.SifterConfig{})
		},
		NewAdoptCommit: func(int) adoptcommit.Object[int] {
			return adoptcommit.NewSnapshotAC[int](n)
		},
	})
	outs, _ := runConsensus(t, c, distinct(n), sched.NewRandom(n, xrand.New(43)), 47)
	checkConsensus(t, distinct(n), outs, "custom")
	for i, k := range phaseIdx {
		if k != i {
			t.Fatalf("phase factory indices %v", phaseIdx)
		}
	}
}

func TestSafetyValveReturnsValidValue(t *testing.T) {
	// Force MaxPhases=1 with a conciliator that never agrees (distinct
	// outputs by construction: zero rounds sifter is impossible, so use a
	// custom conciliator that returns the input unchanged).
	const n = 4
	c := New(n, Config[int]{
		NewConciliator: func(int) conciliator.Interface[int] { return identityConciliator{} },
		NewAdoptCommit: func(int) adoptcommit.Object[int] { return adoptcommit.NewSnapshotAC[int](n) },
		MaxPhases:      1,
	})
	inputs := distinct(n)
	outs, finished, _, err := sim.Collect(sched.NewRandom(n, xrand.New(51)), sim.Config{AlgSeed: 53}, func(p *sim.Proc) int {
		return c.Propose(p, inputs[p.ID()])
	})
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[int]bool)
	for _, v := range inputs {
		set[v] = true
	}
	for i, o := range outs {
		if finished[i] && !set[o] {
			t.Fatalf("valve output %d not an input", o)
		}
	}
}

type identityConciliator struct{}

func (identityConciliator) Conciliate(p *sim.Proc, input int) int { p.Step(); return input }
func (identityConciliator) StepBound() int                        { return 1 }

// TestProtocolReset: a reset protocol replays exactly like a fresh one —
// same outputs, same step count, under the same schedule and seed — and
// keeps the phases it could reset while dropping the ones it could not.
func TestProtocolReset(t *testing.T) {
	const n = 6
	inputs := distinct(n)
	run := func(c *Protocol[int]) ([]int, int64) {
		outs, res := runConsensus(t, c, inputs, sched.NewRandom(n, xrand.New(41)), 43)
		return outs, res.TotalSteps
	}
	track := func(int) conciliator.Interface[int] {
		return conciliator.NewSifter[int](n, conciliator.SifterConfig{TrackSurvivors: true})
	}
	checked := func(_ int, ac adoptcommit.Object[int]) adoptcommit.Object[int] {
		return adoptcommit.NewChecked(ac, nil)
	}
	for _, tc := range []struct {
		name string
		mk   func() *Protocol[int]
		kept bool
	}{
		{"register", func() *Protocol[int] { return NewRegister[int](n) }, true},
		{"encoded", func() *Protocol[int] { return NewRegisterEncoded[int](n, adoptcommit.IdentityEncoder(3)) }, true},
		{"tracked sifter", func() *Protocol[int] {
			return New(n, Config[int]{NewConciliator: track, NewAdoptCommit: func(int) adoptcommit.Object[int] { return adoptcommit.NewHashAC[int]() }})
		}, false},
		{"checked adopt-commit", func() *Protocol[int] {
			c := NewRegister[int](n)
			c.cfg.WrapAdoptCommit = checked
			return c
		}, false},
		{"snapshot", func() *Protocol[int] { return NewSnapshot[int](n) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantOuts, wantSteps := run(tc.mk())
			c := tc.mk()
			run(c)
			built := len(c.phases)
			c.Reset()
			if c.MaxPhases() != 0 || c.MeanPhases() != 0 {
				t.Fatalf("phase counters survive Reset: max %d mean %v", c.MaxPhases(), c.MeanPhases())
			}
			if kept := len(c.phases); tc.kept && kept != built || !tc.kept && kept != 0 {
				t.Fatalf("Reset kept %d of %d phases, want all=%v", kept, built, tc.kept)
			}
			outs, steps := run(c)
			if fmt.Sprint(outs) != fmt.Sprint(wantOuts) || steps != wantSteps {
				t.Fatalf("reset protocol decided %v in %d steps, fresh one %v in %d", outs, steps, wantOuts, wantSteps)
			}
		})
	}
}
