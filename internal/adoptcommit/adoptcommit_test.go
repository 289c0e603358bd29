package adoptcommit

import (
	"fmt"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

type acOutcome[V comparable] struct {
	dec Decision
	val V
}

// runAC executes one Propose per process under the given schedule source
// and returns the outcomes of processes that finished.
func runAC[V comparable](t *testing.T, obj Object[V], inputs []V, src sched.Source) []acOutcome[V] {
	t.Helper()
	outs, finished, _, err := sim.Collect(src, sim.Config{AlgSeed: 1}, func(p *sim.Proc) acOutcome[V] {
		d, v := obj.Propose(p, p.ID(), inputs[p.ID()])
		return acOutcome[V]{dec: d, val: v}
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	var done []acOutcome[V]
	for i, out := range outs {
		if finished[i] {
			done = append(done, out)
		}
	}
	return done
}

// checkACProperties asserts validity, coherence, convergence, and
// adopt-implies-conflict on a set of outcomes.
func checkACProperties[V comparable](t *testing.T, inputs []V, outs []acOutcome[V], label string) {
	t.Helper()
	inputSet := make(map[V]bool, len(inputs))
	for _, v := range inputs {
		inputSet[v] = true
	}
	allSame := true
	for _, v := range inputs {
		if v != inputs[0] {
			allSame = false
			break
		}
	}
	var (
		committed    map[V]bool = make(map[V]bool)
		adoptedCount int
	)
	for _, o := range outs {
		if !inputSet[o.val] {
			t.Fatalf("%s: validity violated: output %v not an input of %v", label, o.val, inputs)
		}
		switch o.dec {
		case Commit:
			committed[o.val] = true
		case Adopt:
			adoptedCount++
		default:
			t.Fatalf("%s: invalid decision %v", label, o.dec)
		}
	}
	if len(committed) > 1 {
		t.Fatalf("%s: two different values committed: %v", label, committed)
	}
	if len(committed) == 1 {
		var cv V
		for v := range committed {
			cv = v
		}
		for _, o := range outs {
			if o.val != cv {
				t.Fatalf("%s: coherence violated: commit %v but some process returned (%v, %v)", label, cv, o.dec, o.val)
			}
		}
	}
	if allSame {
		for _, o := range outs {
			if o.dec != Commit || o.val != inputs[0] {
				t.Fatalf("%s: convergence violated: all inputs %v but got (%v, %v)", label, inputs[0], o.dec, o.val)
			}
		}
	}
	if adoptedCount > 0 && allSame {
		t.Fatalf("%s: adopt returned although all inputs agree (adopt-implies-conflict)", label)
	}
}

// exhaustive model checks an object constructor over every interleaving of
// stepBound operations per process.
func exhaustive[V comparable](t *testing.T, mk func() Object[V], inputs []V) {
	t.Helper()
	n := len(inputs)
	counts := make([]int, n)
	for i := range counts {
		counts[i] = mk().StepBound()
	}
	schedules := sched.AllInterleavings(counts)
	for _, slots := range schedules {
		obj := mk()
		outs := runAC(t, obj, inputs, sched.NewExplicit(n, slots))
		if len(outs) != n {
			t.Fatalf("schedule %v: only %d of %d processes finished", slots, len(outs), n)
		}
		checkACProperties(t, inputs, outs, fmt.Sprintf("schedule %v", slots))
	}
}

func TestSnapshotACSequential(t *testing.T) {
	tests := []struct {
		name   string
		inputs []int
	}{
		{name: "all same", inputs: []int{5, 5, 5}},
		{name: "two values", inputs: []int{1, 2, 1}},
		{name: "all distinct", inputs: []int{1, 2, 3}},
		{name: "single process", inputs: []int{9}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			obj := NewSnapshotAC[int](len(tt.inputs))
			outs := runAC(t, obj, tt.inputs, sched.NewRoundRobin(len(tt.inputs)))
			checkACProperties(t, tt.inputs, outs, tt.name)
		})
	}
}

func TestSnapshotACSoloCommits(t *testing.T) {
	obj := NewSnapshotAC[string](1)
	d, v := obj.Propose(memory.Free, 0, "only")
	if d != Commit || v != "only" {
		t.Fatalf("solo propose = (%v, %q)", d, v)
	}
}

func TestSnapshotACExhaustiveTwoProcs(t *testing.T) {
	for _, inputs := range [][]int{{0, 1}, {0, 0}, {1, 0}, {1, 1}} {
		t.Run(fmt.Sprintf("inputs %v", inputs), func(t *testing.T) {
			exhaustive(t, func() Object[int] { return NewSnapshotAC[int](2) }, inputs)
		})
	}
}

func TestSnapshotACExhaustiveThreeProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive 3-process check skipped in -short mode")
	}
	for _, inputs := range [][]int{{0, 1, 1}, {0, 1, 2}, {2, 2, 2}} {
		t.Run(fmt.Sprintf("inputs %v", inputs), func(t *testing.T) {
			exhaustive(t, func() Object[int] { return NewSnapshotAC[int](3) }, inputs)
		})
	}
}

func TestRegisterACSequential(t *testing.T) {
	tests := []struct {
		name   string
		inputs []int
	}{
		{name: "all same", inputs: []int{1, 1, 1}},
		{name: "binary split", inputs: []int{0, 1, 0}},
		{name: "single", inputs: []int{1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			obj := NewBinaryAC()
			outs := runAC(t, obj, tt.inputs, sched.NewRoundRobin(len(tt.inputs)))
			checkACProperties(t, tt.inputs, outs, tt.name)
		})
	}
}

func TestRegisterACExhaustiveTwoProcs(t *testing.T) {
	for _, inputs := range [][]int{{0, 1}, {0, 0}, {1, 0}, {1, 1}} {
		t.Run(fmt.Sprintf("inputs %v", inputs), func(t *testing.T) {
			exhaustive(t, func() Object[int] { return NewBinaryAC() }, inputs)
		})
	}
}

func TestRegisterACExhaustiveThreeProcsSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled 3-process check skipped in -short mode")
	}
	// Full enumeration for 3 processes x 5 steps is ~750k schedules;
	// sample random interleavings instead.
	rng := xrand.New(77)
	inputsSets := [][]int{{0, 1, 1}, {0, 0, 1}, {1, 0, 1}}
	for _, inputs := range inputsSets {
		for trial := 0; trial < 2000; trial++ {
			slots := randomInterleaving(rng, []int{5, 5, 5})
			obj := NewBinaryAC()
			outs := runAC(t, obj, inputs, sched.NewExplicit(3, slots))
			checkACProperties(t, inputs, outs, fmt.Sprintf("inputs %v schedule %v", inputs, slots))
		}
	}
}

func randomInterleaving(rng *xrand.Rand, counts []int) []int {
	var pool []int
	for pid, c := range counts {
		for i := 0; i < c; i++ {
			pool = append(pool, pid)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

func TestHashACRandomizedManyProcesses(t *testing.T) {
	rng := xrand.New(31)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(15)
		inputs := make([]string, n)
		universe := []string{"alpha", "beta", "gamma"}
		for i := range inputs {
			inputs[i] = universe[rng.Intn(len(universe))]
		}
		obj := NewHashAC[string]()
		src := sched.NewRandom(n, xrand.New(rng.Uint64()))
		outs := runAC(t, obj, inputs, src)
		checkACProperties(t, inputs, outs, fmt.Sprintf("trial %d inputs %v", trial, inputs))
	}
}

func TestSnapshotACRandomizedManyProcesses(t *testing.T) {
	rng := xrand.New(33)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(15)
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = rng.Intn(3)
		}
		obj := NewSnapshotAC[int](n)
		src := sched.NewRandom(n, xrand.New(rng.Uint64()))
		outs := runAC(t, obj, inputs, src)
		checkACProperties(t, inputs, outs, fmt.Sprintf("trial %d inputs %v", trial, inputs))
	}
}

func TestACUnderCrashSchedules(t *testing.T) {
	// Safety must hold even when half the processes crash mid-protocol.
	rng := xrand.New(35)
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(8)
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = rng.Intn(2)
		}
		obj := NewSnapshotAC[int](n)
		src := sched.NewCrashHalf(n, xrand.New(rng.Uint64()))
		outs := runAC(t, obj, inputs, src)
		// Crashed processes produce no outcome; properties must hold on
		// the survivors.
		checkACProperties(t, inputs, outs, fmt.Sprintf("crash trial %d", trial))
	}
}

func TestStepBounds(t *testing.T) {
	tests := []struct {
		name string
		mk   func() Object[int]
		n    int
	}{
		{name: "snapshot", mk: func() Object[int] { return NewSnapshotAC[int](3) }, n: 3},
		{name: "binary register", mk: func() Object[int] { return NewBinaryAC() }, n: 3},
		{name: "digit register", mk: func() Object[int] {
			return NewRegisterAC[int](NewDigitCD(IdentityEncoder(4)))
		}, n: 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			obj := tt.mk()
			bound := obj.StepBound()
			for pid := 0; pid < tt.n; pid++ {
				ctx := &countingCtx{}
				obj.Propose(ctx, pid, pid%2)
				if ctx.steps > bound {
					t.Fatalf("pid %d used %d steps, bound %d", pid, ctx.steps, bound)
				}
			}
		})
	}
}

func TestDecisionString(t *testing.T) {
	if Adopt.String() != "adopt" || Commit.String() != "commit" {
		t.Fatal("decision names wrong")
	}
	if Decision(0).String() != "invalid" {
		t.Fatal("zero decision should stringify as invalid")
	}
}

type countingCtx struct{ steps int }

func (c *countingCtx) Step() { c.steps++ }

func (c *countingCtx) Exclusive() bool { return false }

// TestRegisterACReset: a reset object behaves exactly like a fresh one.
// Without the reset, the second run's solo proposer would adopt the first
// run's committed value; after it, it commits its own.
func TestRegisterACReset(t *testing.T) {
	obj := NewHashAC[string]()
	if outs := runAC(t, Object[string](obj), []string{"first"}, sched.NewRoundRobin(1)); outs[0] != (acOutcome[string]{Commit, "first"}) {
		t.Fatalf("fresh object: %+v, want commit first", outs[0])
	}
	if outs := runAC(t, Object[string](obj), []string{"second"}, sched.NewRoundRobin(1)); outs[0] != (acOutcome[string]{Adopt, "first"}) {
		t.Fatalf("used object: %+v, want adopt first", outs[0])
	}
	if !obj.Reset() {
		t.Fatal("hash adopt-commit refused to reset")
	}
	if outs := runAC(t, Object[string](obj), []string{"second"}, sched.NewRoundRobin(1)); outs[0] != (acOutcome[string]{Commit, "second"}) {
		t.Fatalf("reset object: %+v, want commit second", outs[0])
	}
	if NewRegisterAC[int](noResetCD{}).Reset() {
		t.Fatal("object reset although its conflict detector cannot")
	}
}

// noResetCD is a conflict detector without a Reset method.
type noResetCD struct{}

func (noResetCD) Check(memory.Context, int) bool { return true }
func (noResetCD) StepBound() int                 { return 0 }
