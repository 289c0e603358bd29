package consensus

import (
	"strconv"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/sim"
)

// concurrentStress runs the protocol built by mk on real goroutines over
// the lock-free substrate, reusing one runner across trials, and feeds
// every outcome to the PR 4 safety monitors. The monitor is not
// thread-safe, so all checking happens post-run on the collected
// outputs — the concurrent analogue of the controlled fault experiments.
func concurrentStress(t *testing.T, n, trials int, mk func(n int) *Protocol[int]) {
	t.Helper()
	r := sim.NewConcurrentRunner(n, 0)
	defer r.Close()
	for trial := 0; trial < trials; trial++ {
		c := mk(n)
		inputs := make([]int, n)
		outs := make([]int, n)
		for i := range inputs {
			inputs[i] = (i+trial)%3 + 1
		}
		res, err := r.Run(func(p *sim.Proc) {
			outs[p.ID()] = c.Propose(p, inputs[p.ID()])
		}, sim.Config{AlgSeed: uint64(trial)*7919 + 1})
		if err != nil {
			t.Fatalf("n=%d trial %d: %v", n, trial, err)
		}
		mon := fault.NewMonitor()
		mon.CheckOutcome(inputs, outs, res.Finished)
		if vs := mon.Finish(); len(vs) != 0 {
			t.Fatalf("n=%d trial %d: safety violations: %v", n, trial, vs)
		}
	}
}

// TestConcurrentConsensusRace drives the full conciliator + adopt-commit
// stack under the lock-free concurrent substrate at several scales. Run
// with -race this is the memory-model smoke for the whole protocol
// stack: every CAS loop, snapshot scan, and max-register publish gets
// exercised by real interleavings rather than the controlled scheduler.
func TestConcurrentConsensusRace(t *testing.T) {
	protocols := []struct {
		name string
		mk   func(n int) *Protocol[int]
	}{
		{name: "snapshot", mk: NewSnapshot[int]},
		{name: "register", mk: NewRegister[int]},
		{name: "linear", mk: NewLinear[int]},
	}
	sizes := []struct {
		n      int
		trials int
	}{
		{n: 2, trials: 8},
		{n: 8, trials: 4},
		{n: 64, trials: 2},
	}
	for _, pr := range protocols {
		for _, sz := range sizes {
			pr, sz := pr, sz
			t.Run(pr.name+"/n="+strconv.Itoa(sz.n), func(t *testing.T) {
				if sz.n >= 64 && testing.Short() {
					t.Skip("large concurrent stress skipped in -short")
				}
				concurrentStress(t, sz.n, sz.trials, pr.mk)
			})
		}
	}
}
