package tas

import (
	"fmt"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

func runTAS(t *testing.T, ts *TestAndSet, n int, src sched.Source, seed uint64) ([]bool, []bool) {
	t.Helper()
	wins, finished, _, err := sim.Collect(src, sim.Config{AlgSeed: seed}, func(p *sim.Proc) bool {
		return ts.Acquire(p)
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return wins, finished
}

func countWinners(wins, finished []bool) int {
	w := 0
	for i := range wins {
		if finished[i] && wins[i] {
			w++
		}
	}
	return w
}

func TestExactlyOneWinner(t *testing.T) {
	rng := xrand.New(3)
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(32)
		ts := New(n, Config{})
		wins, finished := runTAS(t, ts, n, sched.NewRandom(n, xrand.New(rng.Uint64())), rng.Uint64())
		for i := range finished {
			if !finished[i] {
				t.Fatalf("trial %d: process %d did not finish", trial, i)
			}
		}
		if w := countWinners(wins, finished); w != 1 {
			t.Fatalf("trial %d n=%d: %d winners, want exactly 1", trial, n, w)
		}
	}
}

func TestAtMostOneWinnerUnderCrashes(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(12)
		ts := New(n, Config{})
		wins, finished := runTAS(t, ts, n, sched.NewCrashHalf(n, xrand.New(rng.Uint64())), rng.Uint64())
		if w := countWinners(wins, finished); w > 1 {
			t.Fatalf("trial %d: %d winners", trial, w)
		}
	}
}

func TestSingleProcessWins(t *testing.T) {
	ts := New(1, Config{})
	wins, finished := runTAS(t, ts, 1, sched.NewRoundRobin(1), 7)
	if !finished[0] || !wins[0] {
		t.Fatal("single process must win")
	}
}

func TestContendersDecayAcrossRounds(t *testing.T) {
	// The sifting rounds must shrink the contender set: finalists should
	// be far fewer than n on average (Alistarh–Aspnes expect O(1)).
	const n, trials = 256, 20
	rng := xrand.New(11)
	var totalFinalists int64
	for trial := 0; trial < trials; trial++ {
		ts := New(n, Config{})
		runTAS(t, ts, n, sched.NewRandom(n, xrand.New(rng.Uint64())), rng.Uint64())
		entered := ts.ContendersPerRound()
		if entered[0] != n {
			t.Fatalf("round 0 contenders %d, want %d", entered[0], n)
		}
		for i := 1; i < len(entered); i++ {
			if entered[i] > entered[i-1] {
				t.Fatalf("contenders increased between rounds %d and %d: %v", i-1, i, entered)
			}
		}
		totalFinalists += ts.Finalists()
	}
	if avg := float64(totalFinalists) / trials; avg > 16 {
		t.Fatalf("average finalists %v, want far fewer than n=%d", avg, n)
	}
}

func TestRoundsConfig(t *testing.T) {
	ts := New(64, Config{Rounds: 3})
	if ts.Rounds() != 3 {
		t.Fatalf("Rounds = %d", ts.Rounds())
	}
	ts = New(64, Config{Rounds: -5})
	if ts.Rounds() < 1 {
		t.Fatalf("Rounds = %d", ts.Rounds())
	}
}

func TestCustomProbsStillOneWinner(t *testing.T) {
	rng := xrand.New(13)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(16)
		ts := New(n, Config{Probs: []float64{0.5}})
		wins, finished := runTAS(t, ts, n, sched.NewRandom(n, xrand.New(rng.Uint64())), rng.Uint64())
		if w := countWinners(wins, finished); w != 1 {
			t.Fatalf("trial %d: %d winners", trial, w)
		}
	}
}

func TestWinnerUnderEveryScheduleKind(t *testing.T) {
	const n = 16
	for _, kind := range sched.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			ts := New(n, Config{})
			wins, finished := runTAS(t, ts, n, sched.New(kind, n, 99), 17)
			w := countWinners(wins, finished)
			crashes := false
			for _, f := range finished {
				if !f {
					crashes = true
				}
			}
			if crashes {
				if w > 1 {
					t.Fatalf("%d winners with crashes", w)
				}
			} else if w != 1 {
				t.Fatalf("%d winners, want 1 (%s)", w, fmt.Sprint(kind))
			}
		})
	}
}

func TestConcurrentModeOneWinner(t *testing.T) {
	const n = 32
	ts := New(n, Config{})
	wins, _, err := sim.CollectConcurrent(n, sim.Config{AlgSeed: 19}, func(p *sim.Proc) bool {
		return ts.Acquire(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	w := 0
	for _, won := range wins {
		if won {
			w++
		}
	}
	if w != 1 {
		t.Fatalf("%d winners in concurrent mode", w)
	}
}
