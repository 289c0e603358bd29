package conciliator

import (
	"fmt"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// runConc executes one Conciliate per process and returns outputs of
// finished processes plus the run result.
func runConc[V comparable](t *testing.T, c Interface[V], inputs []V, src sched.Source, seed uint64) ([]V, sim.Result) {
	t.Helper()
	outs, finished, res, err := sim.Collect(src, sim.Config{AlgSeed: seed}, func(p *sim.Proc) V {
		return c.Conciliate(p, inputs[p.ID()])
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

func checkValidity[V comparable](t *testing.T, inputs, outputs []V, label string) {
	t.Helper()
	set := make(map[V]bool, len(inputs))
	for _, v := range inputs {
		set[v] = true
	}
	for _, o := range outputs {
		if !set[o] {
			t.Fatalf("%s: validity violated: output %v not among inputs", label, o)
		}
	}
}

func allEqual[V comparable](outs []V) bool {
	for _, o := range outs {
		if o != outs[0] {
			return false
		}
	}
	return true
}

func distinctInputs(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = i
	}
	return in
}

// agreementRate runs trials with fresh objects and uniform random
// schedules, returning the fraction of trials in which all outputs agree.
func agreementRate[V comparable](t *testing.T, mk func() Interface[V], inputs []V, trials int, seed uint64) float64 {
	t.Helper()
	rng := xrand.New(seed)
	agreed := 0
	for trial := 0; trial < trials; trial++ {
		c := mk()
		src := sched.NewRandom(len(inputs), xrand.New(rng.Uint64()))
		outs, _ := runConc(t, c, inputs, src, rng.Uint64())
		checkValidity(t, inputs, outs, fmt.Sprintf("trial %d", trial))
		if allEqual(outs) {
			agreed++
		}
	}
	return float64(agreed) / float64(trials)
}

func TestPriorityRoundsFormula(t *testing.T) {
	tests := []struct {
		n    int
		eps  float64
		want int
	}{
		{16, 0.5, 3 + 1 + 1},
		{65536, 0.5, 4 + 1 + 1},
		{16, 0.25, 3 + 2 + 1},
		{2, 0.5, 1 + 1 + 1},
	}
	for _, tt := range tests {
		if got := PriorityRounds(tt.n, tt.eps); got != tt.want {
			t.Errorf("PriorityRounds(%d, %v) = %d, want %d", tt.n, tt.eps, got, tt.want)
		}
	}
}

func TestPrioritySingleProcess(t *testing.T) {
	c := NewPriority[string](1, PriorityConfig{})
	outs, _ := runConc(t, c, []string{"solo"}, sched.NewRoundRobin(1), 1)
	if len(outs) != 1 || outs[0] != "solo" {
		t.Fatalf("outs = %v", outs)
	}
}

func TestPriorityValidityAndStepBound(t *testing.T) {
	for _, n := range []int{2, 5, 16, 33} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			c := NewPriority[int](n, PriorityConfig{})
			inputs := distinctInputs(n)
			outs, res := runConc(t, c, inputs, sched.NewRandom(n, xrand.New(7)), uint64(n))
			checkValidity(t, inputs, outs, "priority")
			if got, bound := res.MaxSteps(), int64(c.StepBound()); got > bound {
				t.Fatalf("max steps %d exceeds bound %d", got, bound)
			}
			if res.MaxSteps() != int64(2*c.Rounds()) {
				t.Fatalf("steps %d, want exactly %d (2 per round)", res.MaxSteps(), 2*c.Rounds())
			}
		})
	}
}

func TestPriorityAgreementProbability(t *testing.T) {
	// Theorem 1 with eps = 1/2 guarantees >= 1/2; empirically the rate is
	// far higher. Use a comfortable margin above the bound.
	const n, trials = 32, 150
	rate := agreementRate(t, func() Interface[int] {
		return NewPriority[int](n, PriorityConfig{Epsilon: 0.5})
	}, distinctInputs(n), trials, 101)
	if rate < 0.5 {
		t.Fatalf("agreement rate %v below the 1-eps = 0.5 bound", rate)
	}
}

func TestPriorityAgreementTightEpsilon(t *testing.T) {
	const n, trials = 16, 100
	rate := agreementRate(t, func() Interface[int] {
		return NewPriority[int](n, PriorityConfig{Epsilon: 1.0 / 16})
	}, distinctInputs(n), trials, 103)
	if rate < 1-1.0/16 {
		t.Fatalf("agreement rate %v below 1-eps = %v", rate, 1-1.0/16)
	}
}

func TestPrioritySurvivorDecay(t *testing.T) {
	// Average survivors after round 1 must respect Lemma 1:
	// E[X_1] <= ln(n-1+1) = ln n (generously, allow 2x slack for noise).
	const n, trials = 64, 60
	rng := xrand.New(55)
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		c := NewPriority[int](n, PriorityConfig{TrackSurvivors: true, Rounds: 4})
		runConc(t, c, distinctInputs(n), sched.NewRandom(n, xrand.New(rng.Uint64())), rng.Uint64())
		surv := c.SurvivorsPerRound()
		if len(surv) != 4 {
			t.Fatalf("survivor rounds = %d", len(surv))
		}
		sum += float64(surv[0] - 1)
	}
	mean := sum / trials
	if mean > 2*4.16 { // ln(64) ~ 4.16
		t.Fatalf("mean excess after round 1 = %v, expected about ln(64) = 4.16", mean)
	}
}

func TestPriorityPaperPriorityRange(t *testing.T) {
	const n = 8
	c := NewPriority[int](n, PriorityConfig{PaperPriorityRange: true})
	inputs := distinctInputs(n)
	outs, _ := runConc(t, c, inputs, sched.NewRoundRobin(n), 3)
	checkValidity(t, inputs, outs, "paper range")
}

func TestPriorityMaxRegisterVariant(t *testing.T) {
	for _, tree := range []bool{false, true} {
		t.Run(fmt.Sprintf("tree=%v", tree), func(t *testing.T) {
			const n = 16
			c := NewPriority[int](n, PriorityConfig{UseMaxRegisters: true, TreeMax: tree})
			inputs := distinctInputs(n)
			outs, res := runConc(t, c, inputs, sched.NewRandom(n, xrand.New(9)), 5)
			checkValidity(t, inputs, outs, "maxreg")
			if res.MaxSteps() > int64(c.StepBound()) {
				t.Fatalf("steps %d exceed bound %d", res.MaxSteps(), c.StepBound())
			}
		})
	}
}

func TestPriorityMaxRegisterAgreement(t *testing.T) {
	const n, trials = 16, 60
	rate := agreementRate(t, func() Interface[int] {
		return NewPriority[int](n, PriorityConfig{UseMaxRegisters: true})
	}, distinctInputs(n), trials, 107)
	if rate < 0.5 {
		t.Fatalf("max-register variant agreement rate %v below 0.5", rate)
	}
}

func TestPriorityShareDisabledStillValid(t *testing.T) {
	share := false
	const n = 16
	c := NewPriority[int](n, PriorityConfig{SharePersonae: &share})
	inputs := distinctInputs(n)
	outs, _ := runConc(t, c, inputs, sched.NewRandom(n, xrand.New(13)), 7)
	checkValidity(t, inputs, outs, "no-share")
}

func TestSifterRoundsFormula(t *testing.T) {
	// R = ceil(loglog n) + ceil(log_{4/3} (8/eps)).
	tests := []struct {
		n    int
		eps  float64
		want int
	}{
		{256, 0.5, 3 + 10}, // log_{4/3} 16 = 9.64 -> 10
		{4, 0.25, 1 + 13},  // log_{4/3} 32 = 12.05 -> 13
	}
	for _, tt := range tests {
		if got := SifterRounds(tt.n, tt.eps); got != tt.want {
			t.Errorf("SifterRounds(%d, %v) = %d, want %d", tt.n, tt.eps, got, tt.want)
		}
	}
}

func TestSifterProbsSchedule(t *testing.T) {
	n := 256
	probs := SifterProbs(n, 8)
	// p_1 = (n-1)^{-1/2}.
	if want := 1 / 15.968719; probs[0] < want*0.99 || probs[0] > want*1.01 {
		t.Fatalf("p_1 = %v, want about %v", probs[0], want)
	}
	// After ceil(loglog n) = 3 tuned rounds, the rest are 1/2.
	for i := 3; i < 8; i++ {
		if probs[i] != 0.5 {
			t.Fatalf("p_%d = %v, want 0.5", i+1, probs[i])
		}
	}
	// Probabilities increase during the tuned prefix.
	if !(probs[0] < probs[1] && probs[1] < probs[2]) {
		t.Fatalf("tuned probs not increasing: %v", probs[:3])
	}
}

func TestSifterProbsSmallN(t *testing.T) {
	for _, n := range []int{1, 2} {
		probs := SifterProbs(n, 3)
		for i, p := range probs {
			if p != 0.5 {
				t.Fatalf("n=%d p_%d = %v, want 0.5", n, i+1, p)
			}
		}
	}
}

func TestSifterValidityAndStepBound(t *testing.T) {
	for _, n := range []int{2, 7, 32, 100} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			c := NewSifter[int](n, SifterConfig{})
			inputs := distinctInputs(n)
			outs, res := runConc(t, c, inputs, sched.NewRandom(n, xrand.New(17)), uint64(n))
			checkValidity(t, inputs, outs, "sifter")
			if res.MaxSteps() != int64(c.Rounds()) {
				t.Fatalf("steps %d, want exactly %d (1 per round)", res.MaxSteps(), c.Rounds())
			}
		})
	}
}

func TestSifterAgreementProbability(t *testing.T) {
	const n, trials = 32, 150
	rate := agreementRate(t, func() Interface[int] {
		return NewSifter[int](n, SifterConfig{Epsilon: 0.5})
	}, distinctInputs(n), trials, 109)
	if rate < 0.5 {
		t.Fatalf("agreement rate %v below 0.5", rate)
	}
}

func TestSifterSurvivorDecayShape(t *testing.T) {
	// Lemma 3: E[X_1] <= 2 sqrt(n-1); allow 2x sampling slack.
	const n, trials = 100, 60
	rng := xrand.New(61)
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		c := NewSifter[int](n, SifterConfig{TrackSurvivors: true})
		runConc(t, c, distinctInputs(n), sched.NewRandom(n, xrand.New(rng.Uint64())), rng.Uint64())
		surv := c.SurvivorsPerRound()
		sum += float64(surv[0] - 1)
	}
	mean := sum / trials
	if bound := 2 * 9.95; mean > 2*bound { // 2 sqrt(99) ~ 19.9
		t.Fatalf("mean excess after round 1 = %v, bound %v", mean, bound)
	}
}

func TestSifterConstantProbsAblationValid(t *testing.T) {
	const n = 32
	c := NewSifter[int](n, SifterConfig{Probs: []float64{0.5}})
	for _, p := range c.Probs() {
		if p != 0.5 {
			t.Fatalf("probs not constant: %v", c.Probs())
		}
	}
	inputs := distinctInputs(n)
	outs, _ := runConc(t, c, inputs, sched.NewRandom(n, xrand.New(23)), 11)
	checkValidity(t, inputs, outs, "constant probs")
}

func TestSifterShareDisabledStillValid(t *testing.T) {
	share := false
	const n = 32
	c := NewSifter[int](n, SifterConfig{SharePersonae: &share})
	inputs := distinctInputs(n)
	outs, _ := runConc(t, c, inputs, sched.NewRandom(n, xrand.New(29)), 13)
	checkValidity(t, inputs, outs, "no-share sifter")
}

func TestStepwiseStepAfterDoneNoop(t *testing.T) {
	const n = 4
	outs, _, _, err := sim.Collect(sched.NewRoundRobin(n), sim.Config{AlgSeed: 1}, func(p *sim.Proc) int {
		c := NewSifter[int](n, SifterConfig{Rounds: 2})
		run := c.Begin(p, p.ID())
		for !run.Done() {
			run.Step(p)
		}
		before := p.Steps()
		run.Step(p) // must not take steps
		if p.Steps() != before {
			t.Error("Step after Done consumed steps")
		}
		return run.Persona().Value()
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = outs
}

func TestCILValidityAndAgreement(t *testing.T) {
	const n, trials = 16, 100
	rate := agreementRate(t, func() Interface[int] {
		return NewCIL[int](n, CILConfig{})
	}, distinctInputs(n), trials, 113)
	if rate < 0.75 {
		t.Fatalf("CIL agreement rate %v below 3/4", rate)
	}
}

func TestCILSafetyValve(t *testing.T) {
	// With write probability forced to ~0, the valve must fire and the
	// process must still return its own input.
	const n = 2
	c := NewCIL[int](n, CILConfig{WriteProb: 1e-18, MaxSpins: 10})
	inputs := []int{100, 200}
	outs, res := runConc(t, c, inputs, sched.NewRoundRobin(n), 3)
	checkValidity(t, inputs, outs, "cil valve")
	if res.MaxSteps() > int64(c.StepBound()) {
		t.Fatalf("steps %d exceed StepBound %d", res.MaxSteps(), c.StepBound())
	}
}

func TestEmbeddedValidityAndBounds(t *testing.T) {
	for _, n := range []int{2, 8, 64} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			c := NewEmbedded[int](n, EmbeddedConfig{})
			inputs := distinctInputs(n)
			outs, res := runConc(t, c, inputs, sched.NewRandom(n, xrand.New(31)), uint64(n)+1)
			checkValidity(t, inputs, outs, "embedded")
			if res.MaxSteps() > int64(c.StepBound()) {
				t.Fatalf("max steps %d exceed bound %d", res.MaxSteps(), c.StepBound())
			}
			s, r, w := c.ExitCounts()
			if s+r+w != int64(n) {
				t.Fatalf("exit counts %d+%d+%d != n=%d", s, r, w, n)
			}
		})
	}
}

func TestEmbeddedAgreementProbability(t *testing.T) {
	// Theorem 3 guarantees only 1/8; empirically the rate is much higher.
	const n, trials = 32, 150
	rate := agreementRate(t, func() Interface[int] {
		return NewEmbedded[int](n, EmbeddedConfig{})
	}, distinctInputs(n), trials, 127)
	if rate < 1.0/8 {
		t.Fatalf("embedded agreement rate %v below 1/8", rate)
	}
}

func TestEmbeddedLinearTotalWork(t *testing.T) {
	// Expected total steps O(n): with the safety margin, assert
	// total <= 40n averaged over trials (the constant from the proof is
	// about 4n loop iterations plus combine overhead).
	const n, trials = 128, 20
	rng := xrand.New(131)
	var total int64
	for trial := 0; trial < trials; trial++ {
		c := NewEmbedded[int](n, EmbeddedConfig{})
		_, res := runConc(t, c, distinctInputs(n), sched.NewRandom(n, xrand.New(rng.Uint64())), rng.Uint64())
		total += res.TotalSteps
	}
	avg := float64(total) / trials
	if avg > 40*n {
		t.Fatalf("average total steps %v not O(n) for n=%d", avg, n)
	}
}

func TestEmbeddedPriorityVariant(t *testing.T) {
	const n = 16
	c := NewEmbeddedPriority[int](n, EmbeddedConfig{})
	inputs := distinctInputs(n)
	outs, res := runConc(t, c, inputs, sched.NewRandom(n, xrand.New(37)), 17)
	checkValidity(t, inputs, outs, "embedded priority")
	if res.MaxSteps() > int64(c.StepBound()) {
		t.Fatalf("max steps %d exceed bound %d", res.MaxSteps(), c.StepBound())
	}
}

func TestConciliatorsDeterministicGivenSeeds(t *testing.T) {
	const n = 16
	mk := []struct {
		name string
		mk   func() Interface[int]
	}{
		{name: "priority", mk: func() Interface[int] { return NewPriority[int](n, PriorityConfig{}) }},
		{name: "sifter", mk: func() Interface[int] { return NewSifter[int](n, SifterConfig{}) }},
		{name: "embedded", mk: func() Interface[int] { return NewEmbedded[int](n, EmbeddedConfig{}) }},
		{name: "cil", mk: func() Interface[int] { return NewCIL[int](n, CILConfig{}) }},
	}
	for _, tc := range mk {
		t.Run(tc.name, func(t *testing.T) {
			run := func() []int {
				outs, _ := runConc(t, tc.mk(), distinctInputs(n), sched.NewRandom(n, xrand.New(41)), 19)
				return outs
			}
			a, b := run(), run()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("outputs diverge at %d: %v vs %v", i, a, b)
				}
			}
		})
	}
}

func TestConciliatorsUnderAllScheduleKinds(t *testing.T) {
	const n = 16
	inputs := distinctInputs(n)
	for _, kind := range sched.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			for _, tc := range []struct {
				name string
				mk   func() Interface[int]
			}{
				{name: "priority", mk: func() Interface[int] { return NewPriority[int](n, PriorityConfig{}) }},
				{name: "sifter", mk: func() Interface[int] { return NewSifter[int](n, SifterConfig{}) }},
				{name: "embedded", mk: func() Interface[int] { return NewEmbedded[int](n, EmbeddedConfig{}) }},
			} {
				outs, _ := runConc(t, tc.mk(), inputs, sched.New(kind, n, 43), 23)
				checkValidity(t, inputs, outs, tc.name+"/"+kind.String())
				if len(outs) == 0 {
					t.Fatalf("%s: no process finished", tc.name)
				}
			}
		})
	}
}

func TestTrackerNilSafe(t *testing.T) {
	var tr *tracker[int]
	tr.record(0, 0, nil)
	if got := tr.survivors(); got != nil {
		t.Fatalf("nil tracker survivors = %v", got)
	}
}

func TestEmbeddedConcurrentMode(t *testing.T) {
	// The same conciliator code must run correctly as free goroutines.
	const n = 16
	c := NewEmbedded[int](n, EmbeddedConfig{})
	inputs := distinctInputs(n)
	outs, _, err := sim.CollectConcurrent(n, sim.Config{AlgSeed: 3}, func(p *sim.Proc) int {
		return c.Conciliate(p, inputs[p.ID()])
	})
	if err != nil {
		t.Fatal(err)
	}
	checkValidity(t, inputs, outs, "embedded concurrent")
}
