package sched

import (
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

func TestProgramValidation(t *testing.T) {
	bad := []struct {
		name string
		n    int
		spec ProgramSpec
	}{
		{"too many processes", 65, ProgramSpec{}},
		{"weight count mismatch", 4, ProgramSpec{Weights: []int64{1, 2}}},
		{"zero weight", 2, ProgramSpec{Weights: []int64{1, 0}}},
		{"negative weight", 2, ProgramSpec{Weights: []int64{1, -3}}},
		{"prefix pid out of range", 2, ProgramSpec{Prefix: []int{0, 2}}},
		{"prefix pid negative", 2, ProgramSpec{Prefix: []int{-1}}},
		{"segment zero length", 2, ProgramSpec{Segments: []ProgramSegment{{Mode: SegWeighted, Len: 0}}}},
		{"segment unknown mode", 2, ProgramSpec{Segments: []ProgramSegment{{Mode: SegmentMode(99), Len: 1}}}},
		{"burst pid out of range", 2, ProgramSpec{Segments: []ProgramSegment{{Mode: SegBurst, Len: 1, Pid: 2}}}},
		{"starve mask out of range", 2, ProgramSpec{Segments: []ProgramSegment{{Mode: SegStarve, Len: 1, Mask: 0b100}}}},
		{"starve mask total", 2, ProgramSpec{Segments: []ProgramSegment{{Mode: SegStarve, Len: 1, Mask: 0b11}}}},
		{"pid starved forever", 3, ProgramSpec{Segments: []ProgramSegment{
			{Mode: SegBurst, Len: 4, Pid: 0},
			{Mode: SegStarve, Len: 4, Mask: 0b110},
		}}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewProgram(tc.n, tc.spec, xrand.New(1)); err == nil {
				t.Fatalf("spec %+v accepted", tc.spec)
			}
		})
	}
}

func TestProgramSegments(t *testing.T) {
	const n = 4
	spec := ProgramSpec{
		Weights: []int64{8, 1, 1, 1},
		Prefix:  []int{3, 3, 0},
		Segments: []ProgramSegment{
			{Mode: SegRoundRobin, Len: n},
			{Mode: SegReverse, Len: n},
			{Mode: SegBurst, Len: 3, Pid: 2},
			{Mode: SegStarve, Len: 64, Mask: 0b0001}, // never pid 0
			{Mode: SegWeighted, Len: 64},
		},
	}
	p, err := NewProgram(n, spec, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, 0, 3+2*n+3)
	for i := 0; i < 3+2*n+3; i++ {
		got = append(got, p.Next())
	}
	want := []int{3, 3, 0, 0, 1, 2, 3, 3, 2, 1, 0, 2, 2, 2}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("slot %d = %d, want %d (got %v)", i, got[i], w, got)
		}
	}
	// The starve segment must never schedule pid 0.
	for i := 0; i < 64; i++ {
		if pid := p.Next(); pid == 0 {
			t.Fatalf("starve segment scheduled the starved pid at slot %d", i)
		}
	}
	// The weighted segment eventually schedules pid 0 (weight 8 of 11).
	saw0 := false
	for i := 0; i < 64; i++ {
		if p.Next() == 0 {
			saw0 = true
		}
	}
	if !saw0 {
		t.Fatal("weighted segment never scheduled the heaviest pid")
	}
}

func TestProgramDeterministicAndCyclic(t *testing.T) {
	const n = 8
	spec := ProgramSpec{
		Weights: []int64{1, 2, 3, 4, 5, 6, 7, 8},
		Segments: []ProgramSegment{
			{Mode: SegWeighted, Len: 5},
			{Mode: SegReverse, Len: 3},
		},
	}
	run := func() []int {
		p, err := NewProgram(n, spec, xrand.New(99))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, 64)
		for i := range out {
			out[i] = p.Next()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("slot %d differs across identical programs: %d vs %d", i, a[i], b[i])
		}
	}
	// The reverse segment recurs every 8 slots with a persistent cursor:
	// occurrence k plays pids n-1-(3k+j) mod n, so across occurrences it
	// covers every pid even though each occurrence is shorter than n.
	desc := 0
	for start := 5; start+3 <= len(a); start += 8 {
		for j := 0; j < 3; j++ {
			if want := n - 1 - desc%n; a[start+j] != want {
				t.Fatalf("reverse slot %d = %d, want %d", start+j, a[start+j], want)
			}
			desc++
		}
	}
}

func TestSeqConcatenates(t *testing.T) {
	const n = 3
	seq := NewSeq(
		NewExplicit(n, []int{0, 1, 2}),
		NewExplicit(n, []int{2, 2}),
		NewExplicit(n, []int{1, 0}),
	)
	if seq.N() != n {
		t.Fatalf("N = %d", seq.N())
	}
	var got []int
	for {
		pid := seq.Next()
		if pid == Exhausted {
			break
		}
		got = append(got, pid)
	}
	want := []int{0, 1, 2, 2, 2, 1, 0}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}

	// A component that is exhausted at construction is passed over.
	seq2 := NewSeq(NewExplicit(n, []int{1}), NewExplicit(n, nil), NewExplicit(n, []int{0}))
	for _, want := range []int{1, 0, Exhausted, Exhausted} {
		if pid := seq2.Next(); pid != want {
			t.Fatalf("Next = %d, want %d", pid, want)
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty Seq did not panic")
			}
		}()
		NewSeq()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched Seq widths did not panic")
			}
		}()
		NewSeq(NewExplicit(2, nil), NewExplicit(3, nil))
	}()
}
