package fault

import "testing"

func TestShrinkToSingleCulprit(t *testing.T) {
	// 20 events, exactly one of which matters: the shrinker must isolate it
	// and halve its magnitude to the floor.
	var events []Event
	for i := 0; i < 19; i++ {
		events = append(events, Event{Kind: Stutter, Pid: i % 4, Slot: int64(i), Arg: 3})
	}
	culprit := Event{Kind: StaleRead, Pid: 2, Op: 7, Arg: 8}
	events = append(events, culprit)
	s := mustSchedule(t, 4, events)

	calls := 0
	repro := func(cand *Schedule) bool {
		calls++
		for _, e := range cand.Events() {
			// Any stale read of pid 2 on op 7 reproduces, regardless of depth:
			// magnitude minimization should then drive Arg to 0.
			if e.Kind == StaleRead && e.Pid == 2 && e.Op == 7 {
				return true
			}
		}
		return false
	}
	got := s.Shrink(10_000, repro)
	if got.Len() != 1 {
		t.Fatalf("shrunk to %d events, want 1: %+v", got.Len(), got.Events())
	}
	e := got.Events()[0]
	if e.Kind != StaleRead || e.Pid != 2 || e.Op != 7 {
		t.Fatalf("wrong culprit survived: %+v", e)
	}
	if e.Arg != 0 {
		t.Errorf("magnitude not minimized: arg = %d", e.Arg)
	}
	if calls == 0 {
		t.Fatal("repro never invoked")
	}
}

func TestShrinkDeterministic(t *testing.T) {
	var events []Event
	for i := 0; i < 12; i++ {
		events = append(events, Event{Kind: Stall, Pid: i % 3, Slot: int64(10 * i), Arg: 4})
	}
	s := mustSchedule(t, 3, events)
	repro := func(cand *Schedule) bool {
		// Needs at least two stalls of pid 1 to reproduce.
		n := 0
		for _, e := range cand.Events() {
			if e.Pid == 1 {
				n++
			}
		}
		return n >= 2
	}
	a := s.Shrink(10_000, repro)
	b := s.Shrink(10_000, repro)
	da, _ := a.Encode()
	db, _ := b.Encode()
	if string(da) != string(db) {
		t.Errorf("shrink is nondeterministic:\n%s\nvs\n%s", da, db)
	}
	if a.Len() != 2 {
		t.Errorf("shrunk to %d events, want 2", a.Len())
	}
	if !repro(a) {
		t.Error("shrunk schedule does not reproduce")
	}
}

func TestShrinkBudgetExhaustion(t *testing.T) {
	var events []Event
	for i := 0; i < 16; i++ {
		events = append(events, Event{Kind: Stutter, Pid: 0, Slot: int64(i), Arg: 2})
	}
	s := mustSchedule(t, 1, events)
	always := func(*Schedule) bool { return true }
	// Zero budget: nothing tried, input returned as-is.
	if got := s.Shrink(0, always); got.Len() != s.Len() {
		t.Errorf("zero-budget shrink changed the schedule: %d events", got.Len())
	}
	// A tiny budget still returns something that reproduces.
	got := s.Shrink(3, always)
	if got == nil || !always(got) {
		t.Fatal("budgeted shrink lost the repro")
	}
	if got.Len() >= s.Len() {
		t.Errorf("3 tries should delete at least one chunk: %d events", got.Len())
	}
}

func TestShrinkNilAndEmpty(t *testing.T) {
	if got := (*Schedule)(nil).Shrink(100, func(*Schedule) bool { return true }); got != nil {
		t.Error("nil input should pass through")
	}
	empty := mustSchedule(t, 2, nil)
	if got := empty.Shrink(100, func(*Schedule) bool { return true }); got.Len() != 0 {
		t.Error("empty input should pass through")
	}
}
