package conciliator_test

import (
	"errors"
	"fmt"
	"testing"

	conciliator "github.com/oblivious-consensus/conciliator"
)

func TestSolveAllModels(t *testing.T) {
	inputs := []string{"red", "green", "blue", "blue", "red", "green"}
	for _, m := range conciliator.Models() {
		t.Run(m.String(), func(t *testing.T) {
			res, err := conciliator.Solve(m, inputs)
			if err != nil {
				t.Fatal(err)
			}
			valid := map[string]bool{"red": true, "green": true, "blue": true}
			if !valid[res.Decided] {
				t.Fatalf("decided %q not an input", res.Decided)
			}
			for i, v := range res.Values {
				if res.Finished[i] && v != res.Decided {
					t.Fatalf("process %d decided %q, others %q", i, v, res.Decided)
				}
			}
			if res.TotalSteps <= 0 || res.MaxSteps <= 0 {
				t.Fatalf("missing step accounting: %+v", res)
			}
			if res.MeanPhases < 1 {
				t.Fatalf("MeanPhases = %v", res.MeanPhases)
			}
		})
	}
}

func TestSolveEmptyInputs(t *testing.T) {
	_, err := conciliator.Solve(conciliator.ModelRegister, []int{})
	if !errors.Is(err, conciliator.ErrNoInputs) {
		t.Fatalf("err = %v", err)
	}
}

func TestSolveSingleProcess(t *testing.T) {
	res, err := conciliator.Solve(conciliator.ModelSnapshot, []int{7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decided != 7 {
		t.Fatalf("decided %d", res.Decided)
	}
}

func TestSolveDeterministicInSeeds(t *testing.T) {
	inputs := make([]int, 16)
	for i := range inputs {
		inputs[i] = i
	}
	run := func() conciliator.Result[int] {
		res, err := conciliator.Solve(conciliator.ModelRegister, inputs,
			conciliator.WithAlgorithmSeed(11), conciliator.WithAdversarySeed(22))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Decided != b.Decided || a.TotalSteps != b.TotalSteps {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestSolveDifferentAdversarySeedsSameAlgorithmStreams(t *testing.T) {
	// Changing only the adversary seed must not fail the protocol.
	inputs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	for seed := uint64(1); seed <= 5; seed++ {
		res, err := conciliator.Solve(conciliator.ModelLinear, inputs,
			conciliator.WithAdversarySeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		if res.Decided < 1 || res.Decided > 8 {
			t.Fatalf("seed %d: decided %d", seed, res.Decided)
		}
	}
}

func TestSolveAllSchedules(t *testing.T) {
	inputs := make([]int, 12)
	for i := range inputs {
		inputs[i] = i % 3
	}
	for _, s := range []conciliator.Schedule{
		conciliator.ScheduleRoundRobin, conciliator.ScheduleRandom,
		conciliator.ScheduleStaggered, conciliator.ScheduleSplit,
		conciliator.ScheduleZipf, conciliator.ScheduleCrashHalf,
	} {
		t.Run(s.String(), func(t *testing.T) {
			res, err := conciliator.Solve(conciliator.ModelRegister, inputs, conciliator.WithSchedule(s))
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range res.Values {
				if res.Finished[i] && v != res.Decided {
					t.Fatalf("agreement violated under %v", s)
				}
			}
		})
	}
}

func TestSolveConcurrentExecution(t *testing.T) {
	inputs := make([]int, 24)
	for i := range inputs {
		inputs[i] = i
	}
	res, err := conciliator.Solve(conciliator.ModelLinear, inputs, conciliator.WithConcurrentExecution())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Values {
		if res.Finished[i] && v != res.Decided {
			t.Fatal("agreement violated in concurrent mode")
		}
	}
}

func TestConsensusRunInputMismatch(t *testing.T) {
	c := conciliator.NewConsensus[int](conciliator.ModelRegister, 4)
	if _, err := c.Run([]int{1, 2}); err == nil {
		t.Fatal("expected input-count error")
	}
}

func TestNewConsensusUnknownModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	conciliator.NewConsensus[int](conciliator.Model(99), 4)
}

func TestModelString(t *testing.T) {
	if conciliator.ModelSnapshot.String() != "snapshot" {
		t.Fatal("snapshot name")
	}
	if conciliator.Model(0).String() != "Model(0)" {
		t.Fatal("unknown model name")
	}
}

func TestRunConciliatorValidityAndAgreementFlag(t *testing.T) {
	inputs := make([]int, 32)
	for i := range inputs {
		inputs[i] = i
	}
	agreedCount := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		res, err := conciliator.RunConciliator(conciliator.ModelRegister, inputs,
			conciliator.WithAlgorithmSeed(uint64(trial)*2+1),
			conciliator.WithAdversarySeed(uint64(trial)*2+2))
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[int]bool)
		for _, v := range inputs {
			set[v] = true
		}
		for i, v := range res.Values {
			if res.Finished[i] && !set[v] {
				t.Fatalf("trial %d: invalid output %d", trial, v)
			}
		}
		if res.Agreed {
			agreedCount++
		}
	}
	// eps = 1/2 floor with generous sampling slack.
	if rate := float64(agreedCount) / trials; rate < 0.5 {
		t.Fatalf("conciliator agreement rate %v below 1/2", rate)
	}
}

func TestRunConciliatorEmpty(t *testing.T) {
	_, err := conciliator.RunConciliator(conciliator.ModelSnapshot, []int{})
	if !errors.Is(err, conciliator.ErrNoInputs) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunConciliatorAllModels(t *testing.T) {
	inputs := []int{5, 5, 9, 9}
	for _, m := range conciliator.Models() {
		res, err := conciliator.RunConciliator(m, inputs)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for i, v := range res.Values {
			if res.Finished[i] && v != 5 && v != 9 {
				t.Fatalf("%v: invalid output %d", m, v)
			}
		}
	}
}

func TestProposeFromCustomBody(t *testing.T) {
	// Advanced use: drive Propose from custom process bodies via Solve's
	// sibling API. Here we just check the exported Propose compiles and
	// works through Run.
	c := conciliator.NewConsensus[string](conciliator.ModelSnapshot, 3)
	res, err := c.Run([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decided != "a" && res.Decided != "b" && res.Decided != "c" {
		t.Fatalf("decided %q", res.Decided)
	}
}

func ExampleSolve() {
	inputs := []string{"commit", "commit", "abort", "commit"}
	res, err := conciliator.Solve(conciliator.ModelRegister, inputs,
		conciliator.WithAlgorithmSeed(42),
		conciliator.WithAdversarySeed(7))
	if err != nil {
		panic(err)
	}
	agreed := true
	for i, v := range res.Values {
		if res.Finished[i] && v != res.Decided {
			agreed = false
		}
	}
	fmt.Println("all processes agreed:", agreed)
	// Output: all processes agreed: true
}

func TestWithMaxSlotsSurfacesBudgetError(t *testing.T) {
	inputs := make([]int, 8)
	for i := range inputs {
		inputs[i] = i
	}
	_, err := conciliator.Solve(conciliator.ModelRegister, inputs,
		conciliator.WithMaxSlots(3))
	if err == nil {
		t.Fatal("expected slot-budget error")
	}
}

func TestRunConciliatorConcurrent(t *testing.T) {
	inputs := make([]int, 16)
	for i := range inputs {
		inputs[i] = i % 4
	}
	res, err := conciliator.RunConciliator(conciliator.ModelSnapshot, inputs,
		conciliator.WithConcurrentExecution())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Values {
		if res.Finished[i] && (v < 0 || v > 3) {
			t.Fatalf("invalid output %d", v)
		}
	}
}

func TestSolveCILBaselineLargeEnoughSlots(t *testing.T) {
	// The baseline spins; the default budget must accommodate it.
	inputs := make([]int, 64)
	for i := range inputs {
		inputs[i] = i
	}
	res, err := conciliator.Solve(conciliator.ModelCILBaseline, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Values {
		if res.Finished[i] && v != res.Decided {
			t.Fatal("agreement violated")
		}
	}
}

func TestResultStepAccountingConsistent(t *testing.T) {
	inputs := []int{1, 2, 3, 4, 5}
	res, err := conciliator.Solve(conciliator.ModelSnapshot, inputs)
	if err != nil {
		t.Fatal(err)
	}
	var sum, max int64
	for _, s := range res.Steps {
		sum += s
		if s > max {
			max = s
		}
	}
	if sum != res.TotalSteps {
		t.Fatalf("sum of Steps %d != TotalSteps %d", sum, res.TotalSteps)
	}
	if max != res.MaxSteps {
		t.Fatalf("max of Steps %d != MaxSteps %d", max, res.MaxSteps)
	}
}
