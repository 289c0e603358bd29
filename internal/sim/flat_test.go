package sim

import (
	"errors"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// countdownMachine is the simplest FlatMachine: process pid performs
// need[pid] operations, each drawing one value from its stream so RNG
// plumbing is exercised.
type countdownMachine struct {
	need []int
	left []int
	sum  []uint64
}

func newCountdown(need []int) *countdownMachine {
	m := &countdownMachine{need: need, left: make([]int, len(need)), sum: make([]uint64, len(need))}
	return m
}

func (m *countdownMachine) Init(pid int, rng *xrand.Rand) {
	m.left[pid] = m.need[pid]
	m.sum[pid] = rng.Uint64()
}

func (m *countdownMachine) Step(pid int, rng *xrand.Rand) bool {
	m.sum[pid] ^= rng.Uint64()
	m.left[pid]--
	return m.left[pid] == 0
}

// countdownBody is the coroutine-engine equivalent of countdownMachine.
func countdownBody(need []int, sum []uint64) Body {
	return func(p *Proc) {
		sum[p.ID()] = p.Rng().Uint64()
		for i := 0; i < need[p.ID()]; i++ {
			p.Step()
			sum[p.ID()] ^= p.Rng().Uint64()
		}
	}
}

// TestFlatMatchesCoroutineOnTrivialBodies pins the engine-level identity
// on a body with no protocol content: steps, slots, finish flags, and
// every RNG draw must match the coroutine engine across schedule kinds.
func TestFlatMatchesCoroutineOnTrivialBodies(t *testing.T) {
	need := []int{3, 1, 7, 2, 5, 4, 6, 1}
	n := len(need)
	for _, kind := range sched.Kinds() {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := Config{AlgSeed: 0xfeed + seed}
			coSum := make([]uint64, n)
			coRes, coErr := RunControlled(sched.New(kind, n, seed), countdownBody(need, coSum), cfg)

			m := newCountdown(need)
			flRes, flErr := RunFlat(sched.New(kind, n, seed), m, cfg)

			if (coErr == nil) != (flErr == nil) {
				t.Fatalf("%v seed %d: error mismatch: coroutine %v flat %v", kind, seed, coErr, flErr)
			}
			if coRes.Slots != flRes.Slots || coRes.TotalSteps != flRes.TotalSteps {
				t.Fatalf("%v seed %d: slots/steps mismatch: coroutine (%d,%d) flat (%d,%d)",
					kind, seed, coRes.Slots, coRes.TotalSteps, flRes.Slots, flRes.TotalSteps)
			}
			for pid := 0; pid < n; pid++ {
				if coRes.Steps[pid] != flRes.Steps[pid] {
					t.Errorf("%v seed %d: steps[%d] = %d, coroutine %d", kind, seed, pid, flRes.Steps[pid], coRes.Steps[pid])
				}
				if coRes.Finished[pid] != flRes.Finished[pid] {
					t.Errorf("%v seed %d: finished[%d] = %v, coroutine %v", kind, seed, pid, flRes.Finished[pid], coRes.Finished[pid])
				}
				// Crashed processes stop at different points in their local
				// computation (the coroutine body parks mid-op), so only
				// compare draws for finished processes.
				if coRes.Finished[pid] && coSum[pid] != m.sum[pid] {
					t.Errorf("%v seed %d: rng draw mismatch for pid %d", kind, seed, pid)
				}
			}
		}
	}
}

// TestFlatScheduleExhausted pins the finite-schedule error path.
func TestFlatScheduleExhausted(t *testing.T) {
	m := newCountdown([]int{2, 2})
	_, err := RunFlat(sched.NewExplicit(2, []int{0, 1}), m, Config{AlgSeed: 1})
	if !errors.Is(err, ErrScheduleExhausted) {
		t.Fatalf("err = %v, want ErrScheduleExhausted", err)
	}
}

// TestFlatSlotBudget pins the budget error path and the slot clamp.
func TestFlatSlotBudget(t *testing.T) {
	m := newCountdown([]int{1 << 20, 1})
	res, err := RunFlat(sched.NewRoundRobin(2), m, Config{AlgSeed: 1, MaxSlots: 100})
	if !errors.Is(err, ErrSlotBudget) {
		t.Fatalf("err = %v, want ErrSlotBudget", err)
	}
	if res.Slots != 100 {
		t.Fatalf("slots = %d, want clamped 100", res.Slots)
	}
}

// TestFlatRejectsFaultSchedules pins that the flat engine refuses fault
// schedules instead of silently running unfaulted.
func TestFlatRejectsFaultSchedules(t *testing.T) {
	sch, serr := fault.NewSchedule(2, nil)
	if serr != nil {
		t.Fatalf("building empty fault schedule: %v", serr)
	}
	_, err := RunFlat(sched.NewRoundRobin(2), newCountdown([]int{1, 1}), Config{AlgSeed: 1, Faults: sch})
	if !errors.Is(err, ErrFlatFaults) {
		t.Fatalf("err = %v, want ErrFlatFaults", err)
	}
}

// TestFlatRunnerReuse pins that a reused runner (and reused Result) is
// deterministic: back-to-back runs of different sizes must match fresh
// runs exactly.
func TestFlatRunnerReuse(t *testing.T) {
	fr := NewFlatRunner[*countdownMachine]()
	var res Result
	for _, need := range [][]int{{5, 2, 9}, {1, 1}, {4, 8, 2, 6, 1, 3, 7, 5}} {
		n := len(need)
		m := newCountdown(need)
		if err := fr.RunInto(sched.NewRoundRobin(n), m, Config{AlgSeed: 9}, &res); err != nil {
			t.Fatalf("reused run failed: %v", err)
		}
		fresh, err := RunFlat(sched.NewRoundRobin(n), newCountdown(need), Config{AlgSeed: 9})
		if err != nil {
			t.Fatalf("fresh run failed: %v", err)
		}
		if res.Slots != fresh.Slots || res.TotalSteps != fresh.TotalSteps {
			t.Fatalf("n=%d: reused (%d,%d) != fresh (%d,%d)", n, res.Slots, res.TotalSteps, fresh.Slots, fresh.TotalSteps)
		}
		for pid := 0; pid < n; pid++ {
			if res.Steps[pid] != fresh.Steps[pid] || res.Finished[pid] != fresh.Finished[pid] {
				t.Fatalf("n=%d pid=%d: reused run drifted from fresh run", n, pid)
			}
		}
	}
}

// TestPutStateClearsScratchArenas is the regression test for pooled
// trial-state hygiene: once a run's state is put back in the pool, its
// Procs' scratch arenas must hold no entries, otherwise the pool pins the
// finished run's shared objects (and their buffers) until the next trial
// of the same or larger size happens to evict them. For the same reason
// the pooled state must drop the run's body, fault injector, coroutine
// handles and crash-aware source. Runs two differently-sized faulted
// trials on a crash-aware source back to back through the pool to cover
// the resize path, then inspects the pooled state directly.
func TestPutStateClearsScratchArenas(t *testing.T) {
	scanBody := func(n int) Body {
		return func(p *Proc) {
			snap := memory.NewSnapshot[int](n)
			snap.Update(p, p.ID(), p.ID())
			_ = snap.ScanScratch(p) // populates the scratch arena keyed by snap
		}
	}
	for _, n := range []int{16, 4} {
		sch, err := fault.NewSchedule(n, []fault.Event{{Kind: fault.Stutter, Pid: 1, Slot: 1, Arg: 2}})
		if err != nil {
			t.Fatal(err)
		}
		src := sched.NewCrashSet(sched.NewRoundRobin(n), []int{0}, 1<<20, 1)
		if _, err := RunControlled(src, scanBody(n), Config{AlgSeed: 3, Faults: sch}); err != nil {
			t.Fatalf("n=%d run failed: %v", n, err)
		}
		r := runPool.Get().(*coRun)
		if r.body != nil || r.fr.inj != nil || r.fr.ca != nil {
			t.Errorf("n=%d: pooled run state retains body %v, injector %v, source %v", n, r.body != nil, r.fr.inj != nil, r.fr.ca != nil)
		}
		for i, p := range r.procs {
			if len(p.scratch) != 0 {
				t.Errorf("n=%d: pooled proc %d retains %d scratch entries, want 0", n, i, len(p.scratch))
			}
			if p.next != nil || p.stop != nil || p.yield != nil || p.inj != nil {
				t.Errorf("n=%d: pooled proc %d retains coroutine or injector handles", n, i)
			}
		}
		runPool.Put(r)
	}
}
