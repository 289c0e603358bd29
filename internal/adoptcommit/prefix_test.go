package adoptcommit

import (
	"errors"
	"fmt"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
)

// TestSnapshotACSafeUnderEveryPrefix model-checks crash safety: for every
// interleaving of two Propose calls AND every prefix of it (the remaining
// steps simply never scheduled — i.e., both processes may crash at any
// point), the outcomes of whichever processes finished must satisfy the
// adopt-commit safety properties. This covers the cases randomized crash
// tests can miss: a committer whose witness crashed mid-operation.
func TestSnapshotACSafeUnderEveryPrefix(t *testing.T) {
	inputsSets := [][]int{{0, 1}, {0, 0}, {1, 0}}
	for _, inputs := range inputsSets {
		t.Run(fmt.Sprintf("inputs %v", inputs), func(t *testing.T) {
			for _, slots := range sched.AllInterleavings([]int{4, 4}) {
				for cut := 0; cut <= len(slots); cut++ {
					prefix := slots[:cut]
					obj := NewSnapshotAC[int](2)
					outs, finished, _, err := sim.Collect(
						sched.NewExplicit(2, prefix),
						sim.Config{AlgSeed: 1},
						func(p *sim.Proc) acOutcome[int] {
							d, v := obj.Propose(p, p.ID(), inputs[p.ID()])
							return acOutcome[int]{dec: d, val: v}
						})
					// Truncated schedules legitimately exhaust with
					// processes unfinished; anything else is a bug.
					if err != nil && !errors.Is(err, sim.ErrScheduleExhausted) {
						t.Fatal(err)
					}
					var done []acOutcome[int]
					var doneInputs []int
					for i, out := range outs {
						if finished[i] {
							done = append(done, out)
							doneInputs = append(doneInputs, inputs[i])
						}
					}
					if len(done) == 0 {
						continue
					}
					// Validity and single-committed-value still apply to
					// the survivors; convergence applies only if every
					// PROPOSED input was the same, which with a crashed
					// partner we cannot assert (its phase-1 write may
					// have landed), so check only safety.
					inputSet := map[int]bool{inputs[0]: true, inputs[1]: true}
					committed := make(map[int]bool)
					for _, o := range done {
						if !inputSet[o.val] {
							t.Fatalf("prefix %v of %v: invalid output %v", prefix, slots, o.val)
						}
						if o.dec == Commit {
							committed[o.val] = true
						}
					}
					if len(committed) > 1 {
						t.Fatalf("prefix %v of %v: two values committed", prefix, slots)
					}
					if len(committed) == 1 {
						for _, o := range done {
							if !committed[o.val] {
								t.Fatalf("prefix %v of %v: coherence violated among survivors", prefix, slots)
							}
						}
					}
				}
			}
		})
	}
}

// TestRegisterACSafeUnderEveryPrefix is the same prefix model check for
// the register-based binary adopt-commit.
func TestRegisterACSafeUnderEveryPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("prefix model check skipped in -short mode")
	}
	inputs := []int{0, 1}
	for _, slots := range sched.AllInterleavings([]int{5, 5}) {
		for cut := 0; cut <= len(slots); cut++ {
			prefix := slots[:cut]
			obj := NewBinaryAC()
			outs, finished, _, err := sim.Collect(
				sched.NewExplicit(2, prefix),
				sim.Config{AlgSeed: 1},
				func(p *sim.Proc) acOutcome[int] {
					d, v := obj.Propose(p, p.ID(), inputs[p.ID()])
					return acOutcome[int]{dec: d, val: v}
				})
			if err != nil && !errors.Is(err, sim.ErrScheduleExhausted) {
				t.Fatal(err)
			}
			committed := make(map[int]bool)
			var done []acOutcome[int]
			for i, out := range outs {
				if finished[i] {
					done = append(done, out)
					if out.dec == Commit {
						committed[out.val] = true
					}
				}
			}
			if len(committed) > 1 {
				t.Fatalf("prefix %v of %v: two values committed", prefix, slots)
			}
			if len(committed) == 1 {
				for _, o := range done {
					if !committed[o.val] {
						t.Fatalf("prefix %v of %v: coherence violated", prefix, slots)
					}
				}
			}
			for _, o := range done {
				if o.val != 0 && o.val != 1 {
					t.Fatalf("prefix %v: invalid output %d", prefix, o.val)
				}
			}
		}
	}
}
