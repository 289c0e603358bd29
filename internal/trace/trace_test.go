package trace

import (
	"strings"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

func TestRecordingSourceDelegates(t *testing.T) {
	rec := Record(sched.NewRoundRobin(3))
	if rec.N() != 3 {
		t.Fatalf("N = %d", rec.N())
	}
	want := []int{0, 1, 2, 0}
	for i, w := range want {
		if got := rec.Next(); got != w {
			t.Fatalf("slot %d = %d, want %d", i, got, w)
		}
	}
	slots := rec.Slots()
	if len(slots) != 4 {
		t.Fatalf("recorded %d slots", len(slots))
	}
	for i, w := range want {
		if slots[i] != w {
			t.Fatalf("recorded slot %d = %d", i, slots[i])
		}
	}
	// Slots must be a copy.
	slots[0] = 99
	if rec.Slots()[0] == 99 {
		t.Fatal("Slots aliases internal state")
	}
}

func TestRecordingSourceDoesNotRecordExhausted(t *testing.T) {
	rec := Record(sched.NewExplicit(2, []int{0, 1}))
	for i := 0; i < 5; i++ {
		rec.Next()
	}
	if got := len(rec.Slots()); got != 2 {
		t.Fatalf("recorded %d slots, want 2", got)
	}
}

func TestRecordingSourceAlive(t *testing.T) {
	rec := Record(sched.NewRoundRobin(2))
	if !rec.Alive(0) || !rec.Alive(1) {
		t.Fatal("plain source should report all alive")
	}
	crash := Record(sched.NewCrashHalf(4, xrand.New(1)))
	// Drain past the cutoff, then at least one process must be dead.
	for i := 0; i < 1000; i++ {
		crash.Next()
	}
	dead := 0
	for pid := 0; pid < 4; pid++ {
		if !crash.Alive(pid) {
			dead++
		}
	}
	if dead != 2 {
		t.Fatalf("%d dead, want 2", dead)
	}
}

func TestReplayReproducesRun(t *testing.T) {
	// Record a run under a random schedule, then replay it and verify
	// the observable execution is identical.
	body := func(order *[]int) sim.Body {
		reg := memory.NewRegister[int]()
		return func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				reg.Write(p, p.ID())
				*order = append(*order, p.ID())
			}
		}
	}

	var first []int
	rec := Record(sched.NewRandom(4, xrand.New(99)))
	if _, err := sim.RunControlled(rec, body(&first), sim.Config{AlgSeed: 1}); err != nil {
		t.Fatal(err)
	}

	var second []int
	if _, err := sim.RunControlled(rec.Replay(), body(&second), sim.Config{AlgSeed: 1}); err != nil {
		t.Fatal(err)
	}

	if len(first) != len(second) {
		t.Fatalf("lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at op %d", i)
		}
	}
}

func TestReplayCrashHalfReproducesResult(t *testing.T) {
	// Recording a run under a crash schedule and replaying it must (a)
	// terminate — the replay needs the recorded crash set, or the driver
	// waits for crashed processes and dies on schedule exhaustion — and
	// (b) reproduce the original Result exactly.
	for seed := uint64(1); seed <= 20; seed++ {
		body := func(p *sim.Proc) {
			reg := p.ID() // a few steps of per-process work
			_ = reg
			for i := 0; i < 10+p.ID(); i++ {
				p.Step()
			}
		}
		rec := Record(sched.NewCrashHalf(8, xrand.New(seed)))
		orig, err := sim.RunControlled(rec, body, sim.Config{AlgSeed: seed})
		if err != nil {
			t.Fatalf("seed %d: recording run failed: %v", seed, err)
		}
		replayed, err := sim.RunControlled(rec.Replay(), body, sim.Config{AlgSeed: seed})
		if err != nil {
			t.Fatalf("seed %d: replay failed: %v", seed, err)
		}
		if orig.TotalSteps != replayed.TotalSteps || orig.Slots != replayed.Slots {
			t.Fatalf("seed %d: totals diverge: orig steps=%d slots=%d, replay steps=%d slots=%d",
				seed, orig.TotalSteps, orig.Slots, replayed.TotalSteps, replayed.Slots)
		}
		for pid := range orig.Steps {
			if orig.Steps[pid] != replayed.Steps[pid] {
				t.Fatalf("seed %d: process %d steps %d vs %d", seed, pid, orig.Steps[pid], replayed.Steps[pid])
			}
			if orig.Finished[pid] != replayed.Finished[pid] {
				t.Fatalf("seed %d: process %d finished %v vs %v", seed, pid, orig.Finished[pid], replayed.Finished[pid])
			}
		}
	}
}

func TestReplayWithoutCrashesIsPlainExplicit(t *testing.T) {
	// Crash-free recordings replay as a plain explicit schedule, which the
	// simulator can drive down its fast (wide-window) path.
	rec := Record(sched.NewRoundRobin(3))
	if _, err := sim.RunControlled(rec, func(p *sim.Proc) {
		p.Step()
	}, sim.Config{AlgSeed: 4}); err != nil {
		t.Fatal(err)
	}
	src := rec.Replay()
	if _, ok := src.(*sched.Explicit); !ok {
		t.Fatalf("crash-free Replay returned %T, want *sched.Explicit", src)
	}
	if _, ok := src.(sched.CrashAware); ok {
		t.Fatal("crash-free replay must not be crash-aware")
	}
}

func TestNewReplayValidates(t *testing.T) {
	// A stored recording can be hand-edited or truncated; NewReplay must
	// reject every malformed shape with a descriptive error rather than
	// handing the simulator a source that indexes out of range mid-run.
	tests := []struct {
		name   string
		n      int
		slots  []int
		deadAt []int
		want   string
	}{
		{"zero processes", 0, nil, nil, "process count"},
		{"pid out of range", 2, []int{0, 1, 2}, nil, "pid 2"},
		{"negative pid", 2, []int{0, -1}, nil, "pid -1"},
		{"death slots length", 2, []int{0, 1}, []int{-1}, "death slots"},
		{"invalid death slot", 2, []int{0, 1}, []int{-5, -1}, "invalid death slot"},
		{"death past recording", 2, []int{0, 1}, []int{3, -1}, "truncated"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewReplay(tt.n, tt.slots, tt.deadAt)
			if err == nil {
				t.Fatal("malformed recording accepted")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestNewReplayTruncatedRecording(t *testing.T) {
	// Record a real crash run, externalize it, then hand-truncate the slot
	// list below a recorded death: rebuilding the replay must fail with a
	// descriptive error, and the untruncated data must rebuild a source
	// that reproduces the original run exactly.
	n := 4
	rec := Record(sched.NewCrashSet(sched.NewRandom(n, xrand.New(7)), []int{1, 2}, 10, 8))
	body := func(p *sim.Proc) int64 {
		for i := 0; i < 12; i++ {
			p.Step()
		}
		return p.Steps()
	}
	_, _, res, err := sim.Collect(rec, sim.Config{AlgSeed: 3}, body)
	if err != nil {
		t.Fatal(err)
	}
	slots, deadAt := rec.Slots(), rec.DeadSlots()
	if deadAt == nil {
		t.Fatal("crash-aware recording has no death slots")
	}
	maxDead := -1
	for _, d := range deadAt {
		if d > maxDead {
			maxDead = d
		}
	}
	if maxDead < 1 {
		t.Fatalf("no recorded death to truncate below: %v", deadAt)
	}

	if _, err := NewReplay(n, slots[:maxDead-1], deadAt); err == nil {
		t.Fatal("truncated recording accepted")
	} else if !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncation error not descriptive: %v", err)
	}

	src, err := NewReplay(n, slots, deadAt)
	if err != nil {
		t.Fatal(err)
	}
	_, _, replayed, err := sim.Collect(src, sim.Config{AlgSeed: 3}, body)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.TotalSteps != res.TotalSteps {
		t.Errorf("replay steps = %d, recorded %d", replayed.TotalSteps, res.TotalSteps)
	}
	for pid := range res.Finished {
		if res.Finished[pid] != replayed.Finished[pid] {
			t.Errorf("process %d finished: %v vs %v", pid, res.Finished[pid], replayed.Finished[pid])
		}
	}

	// DeadSlots must be a copy, and nil for a crash-free recording.
	deadAt[0] = 99
	if rec.DeadSlots()[0] == 99 {
		t.Error("DeadSlots aliases internal state")
	}
	if Record(sched.NewRoundRobin(2)).DeadSlots() != nil {
		t.Error("crash-free recording reports death slots")
	}
}
