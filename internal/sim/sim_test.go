package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/trace"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

func TestControlledStepCounting(t *testing.T) {
	// Each of 4 processes performs exactly 5 register writes.
	reg := memory.NewRegister[int]()
	res, err := RunControlled(sched.NewRoundRobin(4), func(p *Proc) {
		for i := 0; i < 5; i++ {
			reg.Write(p, p.ID())
		}
	}, Config{AlgSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for pid, s := range res.Steps {
		if s != 5 {
			t.Errorf("process %d charged %d steps, want 5", pid, s)
		}
	}
	if res.TotalSteps != 20 {
		t.Errorf("TotalSteps = %d, want 20", res.TotalSteps)
	}
	for pid, f := range res.Finished {
		if !f {
			t.Errorf("process %d not finished", pid)
		}
	}
	if res.MaxSteps() != 5 {
		t.Errorf("MaxSteps = %d", res.MaxSteps())
	}
}

func TestControlledDeterministicExecution(t *testing.T) {
	// Same seeds => identical observable interleaving. We record the
	// order in which writes land in a shared register.
	run := func() []int {
		var order []int
		reg := memory.NewRegister[int]()
		_, err := RunControlled(sched.NewRandom(5, xrand.New(7)), func(p *Proc) {
			for i := 0; i < 10; i++ {
				reg.Write(p, p.ID())
				order = append(order, p.ID()) // safe: controlled mode serializes ops
			}
		}, Config{AlgSeed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("executions diverge at op %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestControlledFollowsSchedule(t *testing.T) {
	// With an explicit schedule, ops must land in exactly schedule order.
	schedule := []int{0, 0, 1, 0, 2, 2, 1, 1, 2, 0}
	counts := map[int]int{0: 4, 1: 3, 2: 3}
	var order []int
	_, err := RunControlled(sched.NewExplicit(3, schedule), func(p *Proc) {
		for i := 0; i < counts[p.ID()]; i++ {
			p.Step()
			order = append(order, p.ID())
		}
	}, Config{AlgSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(schedule) {
		t.Fatalf("executed %d ops, want %d", len(order), len(schedule))
	}
	for i := range order {
		if order[i] != schedule[i] {
			t.Fatalf("op %d by process %d, schedule says %d", i, order[i], schedule[i])
		}
	}
}

func TestControlledSkipsFinishedSlotsUncharged(t *testing.T) {
	// Process 0 takes 1 step, process 1 takes 5. Round-robin will hand
	// process 0 extra slots which must be uncharged no-ops.
	res, err := RunControlled(sched.NewRoundRobin(2), func(p *Proc) {
		steps := 1
		if p.ID() == 1 {
			steps = 5
		}
		for i := 0; i < steps; i++ {
			p.Step()
		}
	}, Config{AlgSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[0] != 1 || res.Steps[1] != 5 {
		t.Fatalf("steps = %v", res.Steps)
	}
	if res.Slots < 6 {
		t.Fatalf("slots = %d, want >= 6", res.Slots)
	}
}

func TestScheduleExhausted(t *testing.T) {
	_, err := RunControlled(sched.NewExplicit(2, []int{0, 1}), func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Step()
		}
	}, Config{AlgSeed: 1})
	if !errors.Is(err, ErrScheduleExhausted) {
		t.Fatalf("err = %v, want ErrScheduleExhausted", err)
	}
}

func TestSlotBudget(t *testing.T) {
	_, err := RunControlled(sched.NewRoundRobin(2), func(p *Proc) {
		for { // never terminates
			p.Step()
		}
	}, Config{AlgSeed: 1, MaxSlots: 100})
	if !errors.Is(err, ErrSlotBudget) {
		t.Fatalf("err = %v, want ErrSlotBudget", err)
	}
}

func TestCrashTailEndsRunAtCutoff(t *testing.T) {
	// The survivor finishes before the crash cutoff passes; the victims
	// never finish. Crossing the cutoff completes the run mid-draw, and
	// the driver must notice instead of spinning through no-op slots to
	// the slot budget (found by FuzzCrashScheduleReplay).
	const cutoff = 50
	cs := sched.NewCrashSet(sched.NewRoundRobin(3), []int{0, 1}, cutoff, 1)
	res, err := RunControlled(cs, func(p *Proc) {
		steps := 1
		if p.ID() != 2 {
			steps = 100000 // victims can never finish
		}
		for i := 0; i < steps; i++ {
			p.Step()
		}
	}, Config{AlgSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots > cutoff+3 {
		t.Fatalf("slots = %d, want run to end right after the cutoff (%d)", res.Slots, cutoff)
	}
	want := []bool{false, false, true}
	for pid, f := range res.Finished {
		if f != want[pid] {
			t.Errorf("Finished[%d] = %v, want %v", pid, f, want[pid])
		}
	}
}

// runBothEngines runs the countdown workload (process pid takes need[pid]
// steps) under a fresh source from mk on the coroutine engine and on the
// flat engine, failing unless the two agree on error, slots and steps.
func runBothEngines(t *testing.T, mk func() sched.Source, need []int, cfg Config) (Result, error) {
	t.Helper()
	co, coErr := RunControlled(mk(), countdownBody(need, make([]uint64, len(need))), cfg)
	fl, flErr := RunFlat(mk(), newCountdown(need), cfg)
	if fmt.Sprint(coErr) != fmt.Sprint(flErr) {
		t.Fatalf("errors differ: coroutine %v, flat %v", coErr, flErr)
	}
	if co.Slots != fl.Slots || co.TotalSteps != fl.TotalSteps {
		t.Fatalf("slots/steps differ: coroutine %d/%d, flat %d/%d", co.Slots, co.TotalSteps, fl.Slots, fl.TotalSteps)
	}
	for pid := range need {
		if co.Steps[pid] != fl.Steps[pid] || co.Finished[pid] != fl.Finished[pid] {
			t.Fatalf("pid %d differs: coroutine %d/%v, flat %d/%v", pid, co.Steps[pid], co.Finished[pid], fl.Steps[pid], fl.Finished[pid])
		}
	}
	return co, coErr
}

func TestLazySkipReplayTailEndsAtCutoff(t *testing.T) {
	// A crash-aware replay whose recording runs far past the point where
	// its victims die: the survivor finished long before, so the run is
	// over at the cutoff. The no-op skip that follows the first dead slot
	// must stop there too, not run on for a whole skip batch.
	const cutoff = 50
	slots := make([]int, 5000)
	for i := range slots {
		slots[i] = i % 3
	}
	mk := func() sched.Source {
		src, err := trace.NewReplay(3, slots, []int{cutoff, cutoff, -1})
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	res, err := runBothEngines(t, mk, []int{100000, 100000, 1}, Config{AlgSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != cutoff {
		t.Fatalf("slots = %d, want the run to end at the cutoff (%d)", res.Slots, cutoff)
	}
	if want := []int64{17, 16, 1}; !slices.Equal(res.Steps, want) {
		t.Fatalf("steps = %v, want %v", res.Steps, want)
	}
}

func TestLazySkipBudgetRunsOutInsideSkip(t *testing.T) {
	// Process 1 finishes at slot 2 and owns the next 2000 slots, so the
	// skip after its first no-op slot runs through the 100-slot budget.
	// The run reports exactly the budget, as the slot-at-a-time loop does.
	slots := append([]int{0, 1}, slices.Repeat([]int{1}, 2000)...)
	slots = append(slots, 0)
	mk := func() sched.Source { return sched.NewExplicit(2, slots) }
	res, err := runBothEngines(t, mk, []int{1 << 20, 1}, Config{AlgSeed: 1, MaxSlots: 100})
	if !errors.Is(err, ErrSlotBudget) {
		t.Fatalf("err = %v, want ErrSlotBudget", err)
	}
	if res.Slots != 100 {
		t.Fatalf("slots = %d, want the budget (100)", res.Slots)
	}
	if want := []int64{1, 1}; !slices.Equal(res.Steps, want) {
		t.Fatalf("steps = %v, want %v", res.Steps, want)
	}
}

func TestNoStepBodyFinishesImmediately(t *testing.T) {
	ran := make([]bool, 3)
	res, err := RunControlled(sched.NewRoundRobin(3), func(p *Proc) {
		ran[p.ID()] = true
	}, Config{AlgSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps != 0 {
		t.Fatalf("TotalSteps = %d", res.TotalSteps)
	}
	for pid, r := range ran {
		if !r {
			t.Errorf("process %d body never ran", pid)
		}
	}
}

func TestRngStreamsDifferAcrossProcesses(t *testing.T) {
	draws := make([]uint64, 4)
	_, err := RunControlled(sched.NewRoundRobin(4), func(p *Proc) {
		draws[p.ID()] = p.Rng().Uint64()
	}, Config{AlgSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for _, d := range draws {
		if seen[d] {
			t.Fatalf("two processes drew the same first value %d", d)
		}
		seen[d] = true
	}
}

func TestRngIndependentOfSchedule(t *testing.T) {
	// Obliviousness sanity check: the values processes draw are the same
	// under two different schedules with the same algorithm seed.
	run := func(src sched.Source) []uint64 {
		draws := make([]uint64, 4)
		if _, err := RunControlled(src, func(p *Proc) {
			p.Step()
			draws[p.ID()] = p.Rng().Uint64()
			p.Step()
		}, Config{AlgSeed: 9}); err != nil {
			t.Fatal(err)
		}
		return draws
	}
	a := run(sched.NewRoundRobin(4))
	b := run(sched.NewRandom(4, xrand.New(1234)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("process %d drew %d under round-robin but %d under random", i, a[i], b[i])
		}
	}
}

func TestCrashAwareCompletion(t *testing.T) {
	// A source that never schedules process 1 after declaring it dead;
	// the run must still complete, reporting process 1 unfinished.
	src := &crashOneSource{n: 2}
	res, err := RunControlled(src, func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Step()
		}
	}, Config{AlgSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished[0] {
		t.Error("process 0 should have finished")
	}
	if res.Finished[1] {
		t.Error("crashed process 1 reported finished")
	}
	if res.Steps[0] != 3 {
		t.Errorf("process 0 steps = %d", res.Steps[0])
	}
	if res.Steps[1] != 0 {
		t.Errorf("crashed process took %d charged steps", res.Steps[1])
	}
}

type crashOneSource struct{ n int }

func (s *crashOneSource) N() int             { return s.n }
func (s *crashOneSource) Next() int          { return 0 }
func (s *crashOneSource) Alive(pid int) bool { return pid == 0 }

func TestCollect(t *testing.T) {
	outs, finished, res, err := Collect(sched.NewRoundRobin(3), Config{AlgSeed: 5}, func(p *Proc) int {
		p.Step()
		return p.ID() * 10
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid, v := range outs {
		if v != pid*10 {
			t.Errorf("out[%d] = %d", pid, v)
		}
		if !finished[pid] {
			t.Errorf("process %d unfinished", pid)
		}
	}
	if res.TotalSteps != 3 {
		t.Errorf("TotalSteps = %d", res.TotalSteps)
	}
}

func TestRunConcurrent(t *testing.T) {
	reg := memory.NewRegister[int]()
	res, err := RunConcurrent(8, func(p *Proc) {
		for i := 0; i < 100; i++ {
			reg.Write(p, p.ID())
			if _, ok := reg.Read(p); !ok {
				t.Error("register empty after own write")
				return
			}
		}
	}, Config{AlgSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps != 8*200 {
		t.Fatalf("TotalSteps = %d, want %d", res.TotalSteps, 8*200)
	}
	for pid, f := range res.Finished {
		if !f {
			t.Errorf("process %d unfinished", pid)
		}
	}
}

func TestCollectConcurrent(t *testing.T) {
	outs, res, err := CollectConcurrent(4, Config{AlgSeed: 3}, func(p *Proc) string {
		p.Step()
		if p.ID()%2 == 0 {
			return "even"
		}
		return "odd"
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps != 4 {
		t.Fatalf("TotalSteps = %d", res.TotalSteps)
	}
	for pid, v := range outs {
		want := "odd"
		if pid%2 == 0 {
			want = "even"
		}
		if v != want {
			t.Errorf("out[%d] = %q", pid, v)
		}
	}
}

func TestManyProcessesControlled(t *testing.T) {
	// Stress the handshake machinery with a larger n.
	const n = 128
	snap := memory.NewSnapshot[int](n)
	res, err := RunControlled(sched.NewRandom(n, xrand.New(2)), func(p *Proc) {
		snap.Update(p, p.ID(), p.ID())
		view := snap.Scan(p)
		if !view[p.ID()].OK {
			t.Error("own update invisible in scan")
		}
	}, Config{AlgSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps != 2*n {
		t.Fatalf("TotalSteps = %d, want %d", res.TotalSteps, 2*n)
	}
}

func TestCrashedProcessStopsAtAbort(t *testing.T) {
	// A crashed process blocked at Step must be reclaimed when the run
	// ends; its goroutine exits via the abort path without completing
	// the body.
	completed := make([]bool, 2)
	src := &crashOneSource{n: 2}
	res, err := RunControlled(src, func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Step()
		}
		completed[p.ID()] = true
	}, Config{AlgSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !completed[0] {
		t.Error("live process did not complete")
	}
	if res.Finished[1] {
		t.Error("crashed process reported finished")
	}
}

func TestResultSlotsCounted(t *testing.T) {
	res, err := RunControlled(sched.NewRoundRobin(2), func(p *Proc) {
		p.Step()
		p.Step()
	}, Config{AlgSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots < 4 {
		t.Fatalf("Slots = %d, want >= 4", res.Slots)
	}
}

func TestStepsVisibleDuringConcurrentRun(t *testing.T) {
	// A process reads its own step counter mid-run: conciliator and
	// adopt-commit metrics do exactly this around each call.
	observed := make([]int64, 2)
	res, err := RunConcurrent(2, func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Step()
		}
		observed[p.ID()] = p.Steps() // own-goroutine read
	}, Config{AlgSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for pid, o := range observed {
		if o != 100 {
			t.Fatalf("process %d observed %d own steps", pid, o)
		}
	}
	if res.TotalSteps != 200 {
		t.Fatalf("TotalSteps = %d", res.TotalSteps)
	}
}

func TestRunControlledSequentialReuseOfProcIDs(t *testing.T) {
	// Two back-to-back runs must be fully independent.
	for run := 0; run < 2; run++ {
		res, err := RunControlled(sched.NewRoundRobin(3), func(p *Proc) {
			p.Step()
		}, Config{AlgSeed: uint64(run)})
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalSteps != 3 {
			t.Fatalf("run %d: TotalSteps = %d", run, res.TotalSteps)
		}
	}
}

func TestBatonHandoffUnderCrashHalfRace(t *testing.T) {
	// Exercises the baton handoff — grants, releases, drain of unfinished
	// processes, and the bulk-skip path — under a crashing schedule. Kept
	// small so it stays cheap under -race -short; the race detector is the
	// point, the assertions are a sanity floor.
	const n = 8
	for seed := uint64(1); seed <= 8; seed++ {
		src := sched.NewCrashHalf(n, xrand.New(seed))
		res, err := RunControlled(src, func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Step()
			}
		}, Config{AlgSeed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for pid := 0; pid < n; pid++ {
			if res.Finished[pid] && res.Steps[pid] != 50 {
				t.Errorf("seed %d: finished pid %d took %d steps, want 50", seed, pid, res.Steps[pid])
			}
		}
		if res.TotalSteps == 0 || res.Slots < res.TotalSteps {
			t.Errorf("seed %d: implausible accounting: steps=%d slots=%d", seed, res.TotalSteps, res.Slots)
		}
	}
}
