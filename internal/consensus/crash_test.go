package consensus

import (
	"fmt"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// TestConsensusSafeUnderEveryCrashSubset injects every proper crash
// subset of a 4-process run (victims stop being scheduled after a seeded
// cutoff) and asserts that surviving processes always agree on a valid
// value. Wait-freedom means survivors must terminate no matter which
// subset crashes.
func TestConsensusSafeUnderEveryCrashSubset(t *testing.T) {
	const n = 4
	subsets := [][]int{
		{}, {0}, {1}, {2}, {3},
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3},
	}
	for _, victims := range subsets {
		t.Run(fmt.Sprintf("crash %v", victims), func(t *testing.T) {
			for trial := 0; trial < 8; trial++ {
				seed := uint64(trial*31 + len(victims))
				inner := sched.NewRandom(n, xrand.New(seed+1))
				var src sched.Source = inner
				if len(victims) > 0 {
					cutoff := 5 + trial*9
					src = sched.NewCrashSet(inner, victims, cutoff, seed+2)
				}
				c := NewRegister[int](n)
				inputs := distinct(n)
				outs, _ := runConsensus(t, c, inputs, src, seed+3)
				checkConsensus(t, inputs, outs, fmt.Sprintf("victims %v trial %d", victims, trial))
			}
		})
	}
}

// TestConsensusEarlyCrash crashes victims before they take a single
// step; the survivors must still decide.
func TestConsensusEarlyCrash(t *testing.T) {
	const n = 6
	inner := sched.NewRoundRobin(n)
	src := sched.NewCrashSet(inner, []int{0, 1, 2}, 0 /* immediate */, 7)
	c := NewSnapshot[int](n)
	inputs := distinct(n)
	outs, res := runConsensus(t, c, inputs, src, 9)
	checkConsensus(t, inputs, outs, "early crash")
	if len(outs) != 3 {
		t.Fatalf("%d survivors decided, want 3", len(outs))
	}
	for pid := 0; pid < 3; pid++ {
		if res.Steps[pid] != 0 {
			t.Fatalf("crashed process %d charged %d steps", pid, res.Steps[pid])
		}
	}
}

// TestCrashSetValidation ensures the all-crashed configuration is
// rejected up front instead of deadlocking a run.
func TestCrashSetValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty survivor set")
		}
	}()
	sched.NewCrashSet(sched.NewRoundRobin(2), []int{0, 1}, 3, 1)
}
