package memory_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
)

func TestFlagsBasics(t *testing.T) {
	for _, ctx := range []memory.Context{memory.Free, memory.FreeExclusive} {
		f := memory.NewFlags(130)
		if f.Len() != 130 {
			t.Fatalf("Len = %d, want 130", f.Len())
		}
		for _, i := range []int{0, 63, 64, 129} {
			if f.Read(ctx, i) {
				t.Fatalf("fresh flag %d reads as set", i)
			}
			f.Write(ctx, i)
			f.Write(ctx, i) // idempotent
		}
		for i := 0; i < f.Len(); i++ {
			want := i == 0 || i == 63 || i == 64 || i == 129
			if got := f.Read(ctx, i); got != want {
				t.Errorf("exclusive=%v: flag %d = %v, want %v", ctx.Exclusive(), i, got, want)
			}
		}
		f.Reset()
		for i := 0; i < f.Len(); i++ {
			if f.Read(ctx, i) {
				t.Errorf("exclusive=%v: flag %d set after Reset", ctx.Exclusive(), i)
			}
		}
	}
}

func TestFlagsIndexOutOfRangePanics(t *testing.T) {
	// 3 flags occupy one word, so index 3 is inside the word but outside
	// the set: the range check, not the slice bound, must catch it.
	for _, i := range []int{-1, 3, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Write(%d) on 3 flags did not panic", i)
				}
			}()
			memory.NewFlags(3).Write(memory.Free, i)
		}()
	}
}

// TestFlagsStoreBuffering is the store-buffering litmus test behind
// every conflict detector: in each round two processes on real
// goroutines each set their own flag and then read the other's, and at
// least one of them must see the other's flag. A flag write that did not
// fence (a plain store, which x86 may hold in its store buffer past the
// following load) lets both reads miss. Rounds are separated by a Reset
// that process 0 runs once both have finished the round before. The two
// cases put the flags in one word and in different words.
func TestFlagsStoreBuffering(t *testing.T) {
	rounds := 20000
	if testing.Short() {
		rounds = 4000
	}
	for _, tc := range []struct {
		name string
		k    int
		ids  [2]int
	}{
		{"same word", 2, [2]int{0, 1}},
		{"different words", 128, [2]int{0, 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := memory.NewFlags(tc.k)
			var (
				gate atomic.Int64    // highest round process 0 has opened
				done [2]atomic.Int64 // rounds each process has finished
				saw  = make([][2]bool, rounds)
			)
			spin := func(cond func() bool) {
				for i := 0; !cond(); i++ {
					if i%64 == 63 {
						runtime.Gosched()
					}
				}
			}
			runConcurrently(t, 2, 1, func(p *sim.Proc) {
				me := p.ID()
				for r := int64(1); r <= int64(rounds); r++ {
					if me == 0 {
						spin(func() bool { return done[1].Load() >= r-1 })
						f.Reset()
						gate.Store(r)
					} else {
						spin(func() bool { return gate.Load() >= r })
					}
					f.Write(p, tc.ids[me])
					saw[r-1][me] = f.Read(p, tc.ids[1-me])
					done[me].Store(r)
				}
			})
			var both, one int
			for r, s := range saw {
				switch {
				case s[0] && s[1]:
					both++
				case s[0] || s[1]:
					one++
				default:
					t.Fatalf("round %d: neither process saw the other's flag", r)
				}
			}
			t.Logf("%d rounds: %d saw each other, %d saw one way", rounds, both, one)
		})
	}
}

// TestFlagsStaleReadsMatchRegister drives a flag set and an array of
// Register[struct{}] through the same script under a controlled run
// with stale-read faults. A depth-0 stale read returns "unset" even for
// a set flag, a deeper one returns the recorded write ("set"), and one
// deeper than the history returns "unset" — exactly what the registers
// answer, read for read.
func TestFlagsStaleReadsMatchRegister(t *testing.T) {
	s, err := fault.NewSchedule(1, []fault.Event{
		{Kind: fault.StaleRead, Pid: 0, Op: 1, Arg: 0}, // safe-register null read
		{Kind: fault.StaleRead, Pid: 0, Op: 2, Arg: 1}, // the write before the latest
		{Kind: fault.StaleRead, Pid: 0, Op: 3, Arg: 1}, // deeper than flag 1's history
	})
	if err != nil {
		t.Fatal(err)
	}
	type flagObj struct {
		write func(ctx memory.Context, i int)
		read  func(ctx memory.Context, i int) bool
	}
	run := func(obj flagObj) []bool {
		var got []bool
		_, err := sim.RunControlled(sched.New(sched.KindRoundRobin, 1, 1), func(p *sim.Proc) {
			obj.write(p, 0)
			obj.write(p, 0)
			obj.write(p, 1)
			for _, i := range []int{0, 0, 0, 1, 1} {
				got = append(got, obj.read(p, i))
			}
		}, sim.Config{AlgSeed: 1, Faults: s})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	flags := memory.NewFlags(2)
	regs := memory.NewRegisterArray[struct{}](2)
	fromFlags := run(flagObj{flags.Write, flags.Read})
	fromRegs := run(flagObj{
		write: func(ctx memory.Context, i int) { regs.At(i).Write(ctx, struct{}{}) },
		read: func(ctx memory.Context, i int) bool {
			_, ok := regs.At(i).Read(ctx)
			return ok
		},
	})
	want := []bool{true, false, true, false, true}
	for i := range want {
		if fromFlags[i] != want[i] || fromRegs[i] != want[i] {
			t.Errorf("read %d: flags %v, registers %v, want %v", i, fromFlags[i], fromRegs[i], want[i])
		}
	}
}
