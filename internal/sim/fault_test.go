package sim

import (
	"errors"
	"slices"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// TestFaultedSlotClockEdges pins how a faulted controlled run spends its
// slots at the edges of the slot clock: wasted slots, restarts of
// finished processes, reborn bodies that return without a step, events
// due at or just after the slot the run ends, and a stall that runs into
// the slot budget. Process pid's first incarnation takes need[pid] steps
// and every later one takes reborn[pid].
func TestFaultedSlotClockEdges(t *testing.T) {
	rr := func(n int) func() sched.Source {
		return func() sched.Source { return sched.NewRoundRobin(n) }
	}
	random := func(n int, seed uint64) func() sched.Source {
		return func() sched.Source { return sched.NewRandom(n, xrand.New(seed)) }
	}
	cases := []struct {
		name     string
		src      func() sched.Source
		need     []int
		reborn   []int
		events   []fault.Event
		maxSlots int64
		wantErr  error

		slots    int64
		steps    []int64
		finished []bool
		faults   fault.Counts
	}{
		{
			// Slots 2 and 4 are pid 0's stutter, slots 3 and 5 pid 1's
			// stall window [2, 6).
			name: "stutter and stall/round-robin",
			src:  rr(2), need: []int{3, 3}, reborn: []int{0, 0},
			events: []fault.Event{
				{Kind: fault.Stutter, Pid: 0, Slot: 1, Arg: 2},
				{Kind: fault.Stall, Pid: 1, Slot: 2, Arg: 4},
			},
			slots: 10, steps: []int64{3, 3}, finished: []bool{true, true},
			faults: fault.Counts{StutterSlots: 2, StallSlots: 2},
		},
		{
			name: "stutter and stall/random",
			src:  random(3, 5), need: []int{3, 3, 3}, reborn: []int{0, 0, 0},
			events: []fault.Event{
				{Kind: fault.Stutter, Pid: 0, Slot: 1, Arg: 2},
				{Kind: fault.Stall, Pid: 2, Slot: 2, Arg: 4},
			},
			slots: 28, steps: []int64{3, 3, 3}, finished: []bool{true, true, true},
			faults: fault.Counts{StutterSlots: 2, StallSlots: 2},
		},
		{
			// Pid 0 finished at slot 1; the restart un-finishes it and the
			// reborn body takes one more step.
			name: "restart of a finished process/round-robin",
			src:  rr(2), need: []int{1, 4}, reborn: []int{1, 1},
			events: []fault.Event{{Kind: fault.CrashRecover, Pid: 0, Slot: 3}},
			slots:  8, steps: []int64{2, 4}, finished: []bool{true, true},
			faults: fault.Counts{Restarts: 1},
		},
		{
			// Pid 0 finishes in slot 0, the first of its grants.
			name: "restart of a finished process/random",
			src:  random(3, 9), need: []int{1, 4, 4}, reborn: []int{1, 1, 1},
			events: []fault.Event{{Kind: fault.CrashRecover, Pid: 0, Slot: 6}},
			slots:  22, steps: []int64{2, 4, 4}, finished: []bool{true, true, true},
			faults: fault.Counts{Restarts: 1},
		},
		{
			// The restart ends pid 0's run: its reborn body returns before
			// its first step, so pid 0 counts as finished from slot 2.
			name: "reborn body returns without a step/round-robin",
			src:  rr(2), need: []int{4, 2}, reborn: []int{0, 0},
			events: []fault.Event{{Kind: fault.CrashRecover, Pid: 0, Slot: 2}},
			slots:  4, steps: []int64{1, 2}, finished: []bool{true, true},
			faults: fault.Counts{Restarts: 1},
		},
		{
			name: "finished process reborn without a step/round-robin",
			src:  rr(2), need: []int{1, 3}, reborn: []int{0, 0},
			events: []fault.Event{{Kind: fault.CrashRecover, Pid: 0, Slot: 2}},
			slots:  6, steps: []int64{1, 3}, finished: []bool{true, true},
			faults: fault.Counts{Restarts: 1},
		},
		{
			// The last process finishes in slot 3, so the slot clock reads
			// 4 at the top of the next slot: a restart due then is
			// delivered before the run is found to be over.
			name: "restart due as the last process finishes/round-robin",
			src:  rr(2), need: []int{2, 2}, reborn: []int{1, 1},
			events: []fault.Event{{Kind: fault.CrashRecover, Pid: 1, Slot: 4}},
			slots:  6, steps: []int64{2, 3}, finished: []bool{true, true},
			faults: fault.Counts{Restarts: 1},
		},
		{
			// One slot later the run is already over: nothing is delivered.
			name: "restart due one slot after the run ends/round-robin",
			src:  rr(2), need: []int{2, 2}, reborn: []int{1, 1},
			events: []fault.Event{{Kind: fault.CrashRecover, Pid: 1, Slot: 5}},
			slots:  4, steps: []int64{2, 2}, finished: []bool{true, true},
		},
		{
			name: "stutter due one slot after the run ends/random",
			src:  random(2, 3), need: []int{2, 2}, reborn: []int{0, 0},
			events: []fault.Event{{Kind: fault.Stutter, Pid: 0, Slot: 6, Arg: 3}},
			slots:  5, steps: []int64{2, 2}, finished: []bool{true, true},
		},
		{
			// Pid 1 is stalled from slot 1 on, so its grants (slots 1, 3,
			// 5, 7) are wasted until the budget fires at 8.
			name: "stall runs into the slot budget/round-robin",
			src:  rr(2), need: []int{2, 2}, reborn: []int{0, 0},
			events:   []fault.Event{{Kind: fault.Stall, Pid: 1, Slot: 1, Arg: 100}},
			maxSlots: 8, wantErr: ErrSlotBudget,
			slots: 8, steps: []int64{2, 0}, finished: []bool{true, false},
			faults: fault.Counts{StallSlots: 4},
		},
		{
			name: "stall runs into the slot budget/random",
			src:  random(2, 4), need: []int{2, 2}, reborn: []int{0, 0},
			events:   []fault.Event{{Kind: fault.Stall, Pid: 1, Slot: 1, Arg: 100}},
			maxSlots: 12, wantErr: ErrSlotBudget,
			slots: 12, steps: []int64{2, 0}, finished: []bool{true, false},
			faults: fault.Counts{StallSlots: 5},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.need)
			sch, err := fault.NewSchedule(n, tc.events)
			if err != nil {
				t.Fatal(err)
			}
			starts := make([]int, n)
			body := func(p *Proc) {
				k := tc.need[p.ID()]
				if starts[p.ID()]++; starts[p.ID()] > 1 {
					k = tc.reborn[p.ID()]
				}
				for i := 0; i < k; i++ {
					p.Step()
				}
			}
			res, err := RunControlled(tc.src(), body, Config{AlgSeed: 1, MaxSlots: tc.maxSlots, Faults: sch})
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if res.Slots != tc.slots {
				t.Errorf("Slots = %d, want %d", res.Slots, tc.slots)
			}
			if !slices.Equal(res.Steps, tc.steps) {
				t.Errorf("Steps = %v, want %v", res.Steps, tc.steps)
			}
			if !slices.Equal(res.Finished, tc.finished) {
				t.Errorf("Finished = %v, want %v", res.Finished, tc.finished)
			}
			if res.Faults != tc.faults || res.Restarts != tc.faults.Restarts {
				t.Errorf("Faults = %+v, Restarts = %d, want %+v", res.Faults, res.Restarts, tc.faults)
			}
		})
	}
}
