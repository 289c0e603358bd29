package conciliator

import (
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
)

// flatConc abstracts the two flat conciliator machines for the identity
// harness.
type flatConc interface {
	sim.FlatMachine
	Reset(inputs []int64)
	Value(pid int) int64
}

// runConcIdentity runs the coroutine conciliator and the flat machine
// under the same (algorithm seed, schedule) and requires byte-identical
// step tables and outputs.
func runConcIdentity(t *testing.T, name string, n int, mkCoroutine func() Interface[int], mkFlat func() flatConc) {
	t.Helper()
	for _, kind := range sched.Kinds() {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := sim.Config{AlgSeed: 0xc0ffee ^ seed}

			co := mkCoroutine()
			coOuts, coFin, coRes, coErr := sim.Collect(sched.New(kind, n, seed), cfg, func(p *sim.Proc) int {
				return co.Conciliate(p, p.ID())
			})
			if coErr != nil {
				t.Fatalf("%s %v seed %d: coroutine run failed: %v", name, kind, seed, coErr)
			}

			fm := mkFlat()
			fm.Reset(nil) // default inputs: value = pid, matching p.ID() above
			flRes, flErr := sim.RunFlat(sched.New(kind, n, seed), fm, cfg)
			if flErr != nil {
				t.Fatalf("%s %v seed %d: flat run failed: %v", name, kind, seed, flErr)
			}

			if coRes.Slots != flRes.Slots || coRes.TotalSteps != flRes.TotalSteps {
				t.Fatalf("%s %v seed %d: slots/steps: coroutine (%d,%d) flat (%d,%d)",
					name, kind, seed, coRes.Slots, coRes.TotalSteps, flRes.Slots, flRes.TotalSteps)
			}
			for pid := 0; pid < n; pid++ {
				if coRes.Steps[pid] != flRes.Steps[pid] {
					t.Errorf("%s %v seed %d: steps[%d] flat %d coroutine %d", name, kind, seed, pid, flRes.Steps[pid], coRes.Steps[pid])
				}
				if coFin[pid] != flRes.Finished[pid] {
					t.Errorf("%s %v seed %d: finished[%d] flat %v coroutine %v", name, kind, seed, pid, flRes.Finished[pid], coFin[pid])
				}
				if coFin[pid] && int64(coOuts[pid]) != fm.Value(pid) {
					t.Errorf("%s %v seed %d: output[%d] flat %d coroutine %d", name, kind, seed, pid, fm.Value(pid), coOuts[pid])
				}
			}
		}
	}
}

// TestFlatSifterByteIdentity pins the flat Algorithm 2 machine against
// the coroutine Sifter across every schedule family.
func TestFlatSifterByteIdentity(t *testing.T) {
	for _, n := range []int{2, 8, 33} {
		runConcIdentity(t, "sifter", n,
			func() Interface[int] { return NewSifter[int](n, SifterConfig{}) },
			func() flatConc { return NewFlatSifter(n, SifterConfig{}) })
	}
}

// TestFlatSifterHalfByteIdentity pins the constant-p = 1/2 baseline.
func TestFlatSifterHalfByteIdentity(t *testing.T) {
	for _, n := range []int{2, 8, 33} {
		cfg := HalfSifterConfig(n, 0.5)
		runConcIdentity(t, "sifter-half", n,
			func() Interface[int] { return NewSifter[int](n, cfg) },
			func() flatConc { return NewFlatSifter(n, cfg) })
	}
}

// TestFlatPriorityMaxByteIdentity pins the flat footnote-1 machine
// against the coroutine Priority conciliator on max registers, both with
// full-width priorities and with the paper's bounded range (which takes
// the rejection-sampling path through the RNG).
func TestFlatPriorityMaxByteIdentity(t *testing.T) {
	for _, n := range []int{2, 8, 33} {
		for _, cfg := range []PriorityConfig{
			{UseMaxRegisters: true},
			{UseMaxRegisters: true, PaperPriorityRange: true},
		} {
			runConcIdentity(t, "priority-max", n,
				func() Interface[int] { return NewPriority[int](n, cfg) },
				func() flatConc { return NewFlatPriorityMax(n, cfg) })
		}
	}
}

// TestFlatMachineReuse pins that Reset makes a machine byte-identical to
// a fresh one on the next trial.
func TestFlatMachineReuse(t *testing.T) {
	n := 8
	m := NewFlatSifter(n, SifterConfig{})
	fr := sim.NewFlatRunner[*FlatSifter]()
	var first, second sim.Result
	cfg := sim.Config{AlgSeed: 42}
	if err := fr.RunInto(sched.New(sched.KindRandom, n, 7), m, cfg, &first); err != nil {
		t.Fatal(err)
	}
	firstVals := make([]int64, n)
	for pid := 0; pid < n; pid++ {
		firstVals[pid] = m.Value(pid)
	}
	m.Reset(nil)
	if err := fr.RunInto(sched.New(sched.KindRandom, n, 7), m, cfg, &second); err != nil {
		t.Fatal(err)
	}
	if first.Slots != second.Slots || first.TotalSteps != second.TotalSteps {
		t.Fatalf("reset trial drifted: (%d,%d) vs (%d,%d)", first.Slots, first.TotalSteps, second.Slots, second.TotalSteps)
	}
	for pid := 0; pid < n; pid++ {
		if m.Value(pid) != firstVals[pid] {
			t.Fatalf("reset trial output[%d] = %d, first %d", pid, m.Value(pid), firstVals[pid])
		}
	}
}
