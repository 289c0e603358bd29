package sched

import (
	"math"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

func TestRoundRobinCycle(t *testing.T) {
	s := NewRoundRobin(3)
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("slot %d = %d, want %d", i, got, w)
		}
	}
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
}

func TestRandomInRangeAndCoversAll(t *testing.T) {
	s := NewRandom(5, xrand.New(1))
	seen := make([]bool, 5)
	for i := 0; i < 1000; i++ {
		id := s.Next()
		if id < 0 || id >= 5 {
			t.Fatalf("id %d out of range", id)
		}
		seen[id] = true
	}
	for pid, ok := range seen {
		if !ok {
			t.Errorf("process %d never scheduled", pid)
		}
	}
}

func TestRandomDeterministicInSeed(t *testing.T) {
	a := NewRandom(7, xrand.New(99))
	b := NewRandom(7, xrand.New(99))
	for i := 0; i < 500; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("schedules diverged at slot %d", i)
		}
	}
}

func TestStaggeredBlocks(t *testing.T) {
	s := NewStaggered(4, 3, xrand.New(5))
	// Runs of one pid must come in whole blocks of 3 (adjacent sweeps may
	// chain two blocks of the same pid, hence "multiple of" rather than
	// "exactly").
	prev, run := -1, 0
	for i := 0; i < 120; i++ {
		id := s.Next()
		if id == prev {
			run++
		} else {
			if prev != -1 && run%3 != 0 {
				t.Fatalf("block of %d for pid %d, want a multiple of 3", run, prev)
			}
			prev, run = id, 1
		}
	}
}

func TestStaggeredSweepsCoverAll(t *testing.T) {
	const n = 6
	s := NewStaggered(n, 2, xrand.New(7))
	counts := make([]int, n)
	for i := 0; i < n*2*10; i++ {
		counts[s.Next()]++
	}
	for pid, c := range counts {
		if c != 20 {
			t.Errorf("pid %d scheduled %d times, want 20", pid, c)
		}
	}
}

func TestSplitPhases(t *testing.T) {
	s := NewSplit(4, 4)
	// First phase: only pids {0,1}; second: only {2,3}.
	for i := 0; i < 4; i++ {
		if id := s.Next(); id >= 2 {
			t.Fatalf("slot %d scheduled %d in low phase", i, id)
		}
	}
	for i := 4; i < 8; i++ {
		if id := s.Next(); id < 2 {
			t.Fatalf("slot %d scheduled %d in high phase", i, id)
		}
	}
}

func TestSplitSingleProcess(t *testing.T) {
	s := NewSplit(1, 3)
	for i := 0; i < 10; i++ {
		if id := s.Next(); id != 0 {
			t.Fatalf("got %d", id)
		}
	}
}

func TestZipfSkewAndRange(t *testing.T) {
	const n = 16
	s := NewZipf(n, 1.2, xrand.New(3))
	counts := make([]int, n)
	const draws = 50000
	for i := 0; i < draws; i++ {
		id := s.Next()
		if id < 0 || id >= n {
			t.Fatalf("id %d out of range", id)
		}
		counts[id]++
	}
	if counts[0] <= counts[n-1] {
		t.Fatalf("no skew: counts[0]=%d counts[last]=%d", counts[0], counts[n-1])
	}
	// Rough shape check against the Zipf pmf for rank 0.
	expect0 := 0.0
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), 1.2)
	}
	expect0 = draws / total
	if math.Abs(float64(counts[0])-expect0) > 0.1*expect0 {
		t.Errorf("rank-0 count %d, want about %.0f", counts[0], expect0)
	}
}

func TestCrashHalfNeverSchedulesCrashedAfterCutoff(t *testing.T) {
	s := NewCrashHalf(8, xrand.New(11))
	// Drain well past any cutoff, then verify only alive pids appear.
	for i := 0; i < 8+4*8; i++ {
		s.Next()
	}
	for i := 0; i < 1000; i++ {
		id := s.Next()
		if !s.Alive(id) {
			t.Fatalf("crashed process %d scheduled after cutoff", id)
		}
	}
	alive := 0
	for pid := 0; pid < 8; pid++ {
		if s.Alive(pid) {
			alive++
		}
	}
	if alive != 4 {
		t.Fatalf("%d alive, want 4", alive)
	}
}

func TestExplicitExhaustion(t *testing.T) {
	s := NewExplicit(2, []int{0, 1, 1})
	if s.Remaining() != 3 {
		t.Fatalf("Remaining = %d", s.Remaining())
	}
	want := []int{0, 1, 1, Exhausted, Exhausted}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("slot %d = %d, want %d", i, got, w)
		}
	}
}

func TestExplicitCopiesInput(t *testing.T) {
	slots := []int{0, 1}
	s := NewExplicit(2, slots)
	slots[0] = 1
	if got := s.Next(); got != 0 {
		t.Fatalf("explicit schedule aliased caller slice: got %d", got)
	}
}

func TestNewKinds(t *testing.T) {
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			s := New(k, 8, 42)
			if s.N() != 8 {
				t.Fatalf("N = %d", s.N())
			}
			for i := 0; i < 100; i++ {
				if id := s.Next(); id < 0 || id >= 8 {
					t.Fatalf("id %d out of range", id)
				}
			}
		})
	}
}

func TestKindStringUnknown(t *testing.T) {
	if got := Kind(0).String(); got != "Kind(0)" {
		t.Fatalf("got %q", got)
	}
}

func TestAllInterleavingsCountsAndValidity(t *testing.T) {
	tests := []struct {
		counts []int
		want   int
	}{
		{counts: []int{1, 1}, want: 2},
		{counts: []int{2, 2}, want: 6},
		{counts: []int{3, 3}, want: 20},
		{counts: []int{2, 2, 2}, want: 90},
		{counts: []int{0, 2}, want: 1},
	}
	for _, tt := range tests {
		got := AllInterleavings(tt.counts)
		if len(got) != tt.want {
			t.Errorf("counts %v: %d interleavings, want %d", tt.counts, len(got), tt.want)
			continue
		}
		if cn := CountInterleavings(tt.counts); cn != tt.want {
			t.Errorf("CountInterleavings(%v) = %d, want %d", tt.counts, cn, tt.want)
		}
		seen := make(map[string]bool)
		for _, il := range got {
			per := make([]int, len(tt.counts))
			key := ""
			for _, pid := range il {
				per[pid]++
				key += string(rune('0' + pid))
			}
			for pid, c := range per {
				if c != tt.counts[pid] {
					t.Fatalf("interleaving %v has %d steps for %d, want %d", il, c, pid, tt.counts[pid])
				}
			}
			if seen[key] {
				t.Fatalf("duplicate interleaving %v", il)
			}
			seen[key] = true
		}
	}
}

func TestObliviousness(t *testing.T) {
	// The schedule must be a pure function of (kind, n, seed): regenerate
	// and compare long prefixes.
	for _, k := range Kinds() {
		a, b := New(k, 10, 7), New(k, 10, 7)
		for i := 0; i < 2000; i++ {
			if a.Next() != b.Next() {
				t.Fatalf("%v: schedule not deterministic in seed", k)
			}
		}
	}
}

func TestCrashSetBehavior(t *testing.T) {
	inner := NewRoundRobin(4)
	s := NewCrashSet(inner, []int{1, 3}, 6, 42)
	if s.N() != 4 {
		t.Fatalf("N = %d", s.N())
	}
	// Before the cutoff: delegates to the inner source, everyone alive.
	for i := 0; i < 6; i++ {
		id := s.Next()
		if id != i%4 {
			t.Fatalf("slot %d = %d, want round-robin", i, id)
		}
		if !s.Alive(1) || !s.Alive(3) {
			t.Fatal("victims dead before cutoff")
		}
	}
	// After the cutoff: only survivors scheduled, victims dead.
	for i := 0; i < 200; i++ {
		id := s.Next()
		if id == 1 || id == 3 {
			t.Fatalf("victim %d scheduled after cutoff", id)
		}
	}
	if s.Alive(1) || s.Alive(3) {
		t.Fatal("victims alive after cutoff")
	}
	if !s.Alive(0) || !s.Alive(2) {
		t.Fatal("survivors reported dead")
	}
}

func TestCrashSetImmediateCutoff(t *testing.T) {
	s := NewCrashSet(NewRoundRobin(3), []int{0}, 0, 1)
	for i := 0; i < 50; i++ {
		if id := s.Next(); id == 0 {
			t.Fatal("victim scheduled with cutoff 0")
		}
	}
}

func TestCrashSetNoVictims(t *testing.T) {
	s := NewCrashSet(NewRoundRobin(2), nil, 5, 1)
	for pid := 0; pid < 2; pid++ {
		if !s.Alive(pid) {
			t.Fatal("no-victim crash set killed someone")
		}
	}
}

func TestFavoredSchedule(t *testing.T) {
	s := NewFavored(4)
	if s.N() != 4 {
		t.Fatalf("N = %d", s.N())
	}
	want := []int{0, 1, 0, 2, 0, 3, 0, 1, 0, 2}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("slot %d = %d, want %d", i, got, w)
		}
	}
}

func TestFavoredSingleProcess(t *testing.T) {
	s := NewFavored(1)
	for i := 0; i < 10; i++ {
		if s.Next() != 0 {
			t.Fatal("single-process favored must schedule 0")
		}
	}
}

func TestFavoredSkewRatio(t *testing.T) {
	const n = 8
	s := NewFavored(n)
	counts := make([]int, n)
	for i := 0; i < 1400; i++ {
		counts[s.Next()]++
	}
	if counts[0] != 700 {
		t.Fatalf("favored process got %d of 1400 slots", counts[0])
	}
	for pid := 1; pid < n; pid++ {
		if counts[pid] != 100 {
			t.Fatalf("pid %d got %d slots, want 100", pid, counts[pid])
		}
	}
}

// skipperSources builds a named set of every Skipper-implementing source
// in this package (trace.ReplaySource, the third, is covered by
// FuzzScheduleSkipper), paired with an identically-seeded twin, so tests
// can compare the slot stream of a SkipWhile/Next mix against a pure-Next
// reference.
func skipperSources() map[string]func() (Source, Source) {
	fresh := map[string]func() Source{
		"round-robin": func() Source { return NewRoundRobin(7) },
		"explicit": func() Source {
			slots := make([]int, 400)
			rng := xrand.New(16)
			for i := range slots {
				slots[i] = rng.Intn(5)
			}
			return NewExplicit(5, slots)
		},
	}
	out := make(map[string]func() (Source, Source), len(fresh))
	for name, mk := range fresh {
		out[name] = func() (Source, Source) { return mk(), mk() }
	}
	return out
}

func TestSkipWhileMatchesNext(t *testing.T) {
	// Interleaving SkipWhile with Next must yield exactly the slot stream
	// a pure-Next consumer sees, for every source that can peek. The
	// predicate accepts a subset of pids so both skipped slots and slots
	// left for Next are exercised.
	for name, mk := range skipperSources() {
		t.Run(name, func(t *testing.T) {
			mixed, ref := mk()
			skipper := mixed.(Skipper)
			drive := xrand.New(99)
			noop := func(pid int) bool { return pid%3 == 0 }
			var got []int
			for len(got) < 300 {
				if drive.Intn(2) == 0 {
					// Consume a run of accepted slots in bulk; they are
					// all no-op (accepted) slots by construction.
					skipped := skipper.SkipWhile(noop)
					for i := int64(0); i < skipped; i++ {
						got = append(got, -2) // placeholder, filled below
					}
					continue
				}
				pid := mixed.Next()
				got = append(got, pid)
				if pid == Exhausted {
					break
				}
			}
			for i, pid := range got {
				want := ref.Next()
				if pid == -2 {
					// A skipped slot: the reference stream must hold an
					// accepted pid here.
					if want == Exhausted || !noop(want) {
						t.Fatalf("slot %d: skipped, but reference produced %d", i, want)
					}
					continue
				}
				if pid != want {
					t.Fatalf("slot %d: mixed stream %d, reference %d", i, pid, want)
				}
				if pid == Exhausted {
					break
				}
			}
		})
	}
}

func TestSkipWhileLeavesFirstRejected(t *testing.T) {
	// The first rejected slot must not be consumed: the next Next returns
	// it. Run against every peeking source with a reject-everything
	// predicate.
	for name, mk := range skipperSources() {
		t.Run(name, func(t *testing.T) {
			mixed, ref := mk()
			skipper := mixed.(Skipper)
			for i := 0; i < 50; i++ {
				if n := skipper.SkipWhile(func(int) bool { return false }); n != 0 {
					t.Fatalf("draw %d: reject-all SkipWhile consumed %d slots", i, n)
				}
				want := ref.Next()
				if got := mixed.Next(); got != want {
					t.Fatalf("draw %d: Next after SkipWhile = %d, want %d", i, got, want)
				}
			}
		})
	}
}

func TestRoundRobinSkipWhileCapsAtOneCycle(t *testing.T) {
	// An accept-everything predicate (a Skipper-contract violation) must
	// still terminate for RoundRobin, consuming exactly one full cycle.
	s := NewRoundRobin(5)
	s.Next() // misalign so the cap is not cycle-aligned
	if n := s.SkipWhile(func(int) bool { return true }); n != 5 {
		t.Fatalf("SkipWhile consumed %d slots, want one full cycle of 5", n)
	}
	if got := s.Next(); got != 1 {
		t.Fatalf("Next after full-cycle skip = %d, want 1", got)
	}
}

func TestExplicitSkipWhileRemaining(t *testing.T) {
	s := NewExplicit(3, []int{0, 0, 1, 0, 2})
	if n := s.SkipWhile(func(pid int) bool { return pid == 0 }); n != 2 {
		t.Fatalf("skipped %d, want 2", n)
	}
	if r := s.Remaining(); r != 3 {
		t.Fatalf("Remaining = %d, want 3", r)
	}
	if got := s.Next(); got != 1 {
		t.Fatalf("Next = %d, want 1", got)
	}
	// Skipping past the end stops at exhaustion without consuming more.
	if n := s.SkipWhile(func(int) bool { return true }); n != 2 {
		t.Fatalf("tail skip = %d, want 2", n)
	}
	if r := s.Remaining(); r != 0 {
		t.Fatalf("Remaining after tail skip = %d, want 0", r)
	}
	if got := s.Next(); got != Exhausted {
		t.Fatalf("Next after exhaustion = %d, want Exhausted", got)
	}
}
