package sim

import (
	"errors"
	"strings"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/memory"
)

func TestRunConcurrentRecoversPanic(t *testing.T) {
	const n = 8
	res, err := RunConcurrent(n, func(p *Proc) {
		p.Step()
		if p.ID() == 3 {
			panic("deliberate test panic")
		}
		p.Step()
	}, Config{AlgSeed: 11})
	if err == nil {
		t.Fatal("panicking process produced no error")
	}
	if !strings.Contains(err.Error(), "process 3") || !strings.Contains(err.Error(), "deliberate test panic") {
		t.Errorf("error %q does not name the process and panic value", err)
	}
	for pid, f := range res.Finished {
		if pid == 3 && f {
			t.Error("panicked process reported Finished=true")
		}
		if pid != 3 && !f {
			t.Errorf("healthy process %d reported Finished=false", pid)
		}
	}
	// The panicking process charged its pre-panic step; the rest took 2.
	if res.Steps[3] != 1 {
		t.Errorf("panicked process charged %d steps, want 1", res.Steps[3])
	}
	if res.TotalSteps != 2*n-1 {
		t.Errorf("TotalSteps = %d, want %d", res.TotalSteps, 2*n-1)
	}
}

func TestRunConcurrentRejectsFaultSchedules(t *testing.T) {
	fs, err := fault.NewSchedule(2, []fault.Event{{Kind: fault.Stutter, Pid: 0, Slot: 1, Arg: 1}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunConcurrent(2, func(p *Proc) { p.Step() }, Config{AlgSeed: 1, Faults: fs})
	if !errors.Is(err, ErrConcurrentFaults) {
		t.Fatalf("err = %v, want ErrConcurrentFaults", err)
	}
}

func TestConcurrentRunnerReuseAcrossTrials(t *testing.T) {
	const n = 4
	r := NewConcurrentRunner(n, 0)
	defer r.Close()
	for trial := 0; trial < 5; trial++ {
		reg := memory.NewRegister[int]()
		res, err := r.Run(func(p *Proc) {
			for i := 0; i < 10; i++ {
				reg.Write(p, p.ID())
				if _, ok := reg.Read(p); !ok {
					t.Error("register empty after own write")
				}
			}
		}, Config{AlgSeed: uint64(trial) + 1})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Counters and finished flags must reset between trials: exactly
		// this trial's steps, no carryover.
		if res.TotalSteps != n*20 {
			t.Fatalf("trial %d: TotalSteps = %d, want %d", trial, res.TotalSteps, n*20)
		}
		for pid, f := range res.Finished {
			if !f {
				t.Fatalf("trial %d: process %d unfinished", trial, pid)
			}
		}
	}
}

func TestConcurrentRunnerRecoversAfterPanicTrial(t *testing.T) {
	r := NewConcurrentRunner(2, 0)
	defer r.Close()
	if _, err := r.Run(func(p *Proc) {
		if p.ID() == 0 {
			panic("boom")
		}
	}, Config{AlgSeed: 1}); err == nil {
		t.Fatal("panic trial produced no error")
	}
	res, err := r.Run(func(p *Proc) { p.Step() }, Config{AlgSeed: 2})
	if err != nil {
		t.Fatalf("healthy trial after panic trial: %v", err)
	}
	if res.TotalSteps != 2 || !res.Finished[0] || !res.Finished[1] {
		t.Fatalf("healthy trial result corrupted: %+v", res)
	}
}

func TestConcurrentRunnerWorkerPoolSmallerThanN(t *testing.T) {
	// 16 wait-free processes over 4 workers, several trials on one
	// runner: everything still runs to completion with exact step
	// accounting. Each process charges a different number of steps, so a
	// counter handed to the wrong process, carried over from the last
	// trial, or lost to a worker switching processes shows up. The step
	// counters are plain fields, so under the race detector this also
	// checks that only each process's own goroutine touches its counter
	// during a trial.
	const n, workers, trials = 16, 4, 3
	r := NewConcurrentRunner(n, workers)
	defer r.Close()
	if r.Workers() != workers {
		t.Fatalf("Workers() = %d, want %d", r.Workers(), workers)
	}
	for trial := 0; trial < trials; trial++ {
		want := func(pid int) int64 { return int64(10*(trial+1) + pid) }
		reg := memory.NewRegister[int]()
		seen := make([]int64, n)
		res, err := r.Run(func(p *Proc) {
			for i := int64(0); i < want(p.ID()); i++ {
				if i%2 == 0 {
					reg.Write(p, p.ID())
				} else {
					reg.Read(p)
				}
			}
			seen[p.ID()] = p.Steps()
		}, Config{AlgSeed: uint64(trial) + 9})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for pid := 0; pid < n; pid++ {
			total += want(pid)
			if res.Steps[pid] != want(pid) {
				t.Errorf("trial %d: process %d Result.Steps = %d, want %d", trial, pid, res.Steps[pid], want(pid))
			}
			if seen[pid] != want(pid) {
				t.Errorf("trial %d: process %d read Steps() = %d at exit, want %d", trial, pid, seen[pid], want(pid))
			}
			if !res.Finished[pid] {
				t.Errorf("trial %d: process %d unfinished", trial, pid)
			}
		}
		if res.TotalSteps != total {
			t.Fatalf("trial %d: TotalSteps = %d, want %d", trial, res.TotalSteps, total)
		}
	}
}

func TestConcurrentLockFreeDefault(t *testing.T) {
	// Concurrent runs are non-exclusive, so their objects latch the
	// lock-free representation, and a later Free read observes the
	// lock-free cell's state.
	reg := memory.NewRegister[int]()
	if _, err := RunConcurrent(4, func(p *Proc) {
		if p.Exclusive() {
			t.Error("concurrent context reports Exclusive")
		}
		reg.Write(p, p.ID()+1)
	}, Config{AlgSeed: 3}); err != nil {
		t.Fatal(err)
	}
	if v, ok := reg.Read(memory.Free); !ok || v < 1 || v > 4 {
		t.Fatalf("Free read after lock-free run = (%d, %v), want one of the written values", v, ok)
	}
}
