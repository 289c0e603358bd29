package adoptcommit

import (
	"fmt"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

func TestFlagsACSequential(t *testing.T) {
	obj := NewFlagsAC(3)
	outs := runAC(t, obj, []int{2, 2, 2}, sched.NewRoundRobin(3))
	checkACProperties(t, []int{2, 2, 2}, outs, "flags all same")

	obj2 := NewFlagsAC(3)
	outs2 := runAC(t, obj2, []int{0, 1, 2}, sched.NewRoundRobin(3))
	checkACProperties(t, []int{0, 1, 2}, outs2, "flags distinct")
}

func TestFlagsACExhaustiveTwoProcs(t *testing.T) {
	// k=2: Propose costs CD(2) + 3 = 5 steps.
	for _, inputs := range [][]int{{0, 1}, {1, 1}, {0, 0}} {
		t.Run(fmt.Sprintf("inputs %v", inputs), func(t *testing.T) {
			exhaustive(t, func() Object[int] { return NewFlagsAC(2) }, inputs)
		})
	}
}

func TestFlagsACRandomizedThreeValues(t *testing.T) {
	rng := xrand.New(21)
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(10)
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = rng.Intn(3)
		}
		obj := NewFlagsAC(3)
		outs := runAC(t, obj, inputs, sched.NewRandom(n, xrand.New(rng.Uint64())))
		checkACProperties(t, inputs, outs, fmt.Sprintf("trial %d", trial))
	}
}

func TestFlagsACStepBound(t *testing.T) {
	for _, k := range []int{2, 5, 16} {
		obj := NewFlagsAC(k)
		if got, want := obj.StepBound(), k+3; got != want {
			t.Errorf("k=%d: StepBound %d, want %d", k, got, want)
		}
		ctx := &countingCtx{}
		obj.Propose(ctx, 0, k-1)
		if ctx.steps > k+3 {
			t.Errorf("k=%d: propose used %d steps", k, ctx.steps)
		}
	}
}
