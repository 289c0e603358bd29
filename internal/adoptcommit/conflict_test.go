package adoptcommit

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"testing/quick"

	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
)

func TestFlagsCDValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k < 2")
		}
	}()
	NewFlagsCD(1)
}

func TestFlagsCDAllSameOK(t *testing.T) {
	cd := NewFlagsCD(4)
	for i := 0; i < 5; i++ {
		if !cd.Check(memory.Free, 2) {
			t.Fatal("same-value check reported conflict")
		}
	}
}

func TestFlagsCDSequentialConflict(t *testing.T) {
	cd := NewFlagsCD(3)
	if !cd.Check(memory.Free, 0) {
		t.Fatal("first check conflicted")
	}
	if cd.Check(memory.Free, 1) {
		t.Fatal("second check with different value passed")
	}
}

func TestFlagsCDNoTwoDifferentOKsExhaustive(t *testing.T) {
	// Model check the two-process, two-distinct-values case over all
	// interleavings of the k steps each check takes.
	for _, k := range []int{2, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			counts := []int{k, k}
			for _, slots := range sched.AllInterleavings(counts) {
				cd := NewFlagsCD(k)
				oks, finished, _, err := sim.Collect(sched.NewExplicit(2, slots), sim.Config{AlgSeed: 1}, func(p *sim.Proc) bool {
					return cd.Check(p, p.ID()) // process i checks value i
				})
				if err != nil {
					t.Fatalf("schedule %v: %v", slots, err)
				}
				if !finished[0] || !finished[1] {
					t.Fatalf("schedule %v: processes did not finish", slots)
				}
				if oks[0] && oks[1] {
					t.Fatalf("schedule %v: two different values both passed", slots)
				}
			}
		})
	}
}

func TestFlagsCDSameValueConcurrentAlwaysOK(t *testing.T) {
	for _, slots := range sched.AllInterleavings([]int{2, 2}) {
		cd := NewFlagsCD(2)
		oks, _, _, err := sim.Collect(sched.NewExplicit(2, slots), sim.Config{AlgSeed: 1}, func(p *sim.Proc) bool {
			return cd.Check(p, 1)
		})
		if err != nil {
			t.Fatalf("schedule %v: %v", slots, err)
		}
		if !oks[0] || !oks[1] {
			t.Fatalf("schedule %v: same-value checks conflicted", slots)
		}
	}
}

func TestDigitCDEncoderValidation(t *testing.T) {
	for _, bits := range []int{0, 65, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bits=%d: expected panic", bits)
				}
			}()
			NewDigitCD(Encoder[int]{Bits: bits, Encode: func(v int) uint64 { return uint64(v) }})
		}()
	}
}

func TestDigitCDOverflowPanics(t *testing.T) {
	cd := NewDigitCD(IdentityEncoder(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-width code")
		}
	}()
	cd.Check(memory.Free, 4)
}

func TestDigitCDSequential(t *testing.T) {
	cd := NewDigitCD(IdentityEncoder(4))
	if !cd.Check(memory.Free, 5) {
		t.Fatal("first check conflicted")
	}
	if !cd.Check(memory.Free, 5) {
		t.Fatal("repeat of same value conflicted")
	}
	if cd.Check(memory.Free, 9) {
		t.Fatal("different value passed after 5")
	}
}

func TestDigitCDNoTwoDifferentOKsExhaustive(t *testing.T) {
	// Two processes, values differing in one or several digits; steps per
	// check = 2*bits.
	const bits = 2
	pairs := [][2]int{{0, 1}, {1, 2}, {0, 3}, {2, 3}}
	for _, pair := range pairs {
		t.Run(fmt.Sprintf("values %v", pair), func(t *testing.T) {
			for _, slots := range sched.AllInterleavings([]int{2 * bits, 2 * bits}) {
				cd := NewDigitCD(IdentityEncoder(bits))
				oks, _, _, err := sim.Collect(sched.NewExplicit(2, slots), sim.Config{AlgSeed: 1}, func(p *sim.Proc) bool {
					return cd.Check(p, pair[p.ID()])
				})
				if err != nil {
					t.Fatalf("schedule %v: %v", slots, err)
				}
				if oks[0] && oks[1] {
					t.Fatalf("schedule %v values %v: both passed", slots, pair)
				}
			}
		})
	}
}

func TestDigitCDCostScalesWithBits(t *testing.T) {
	for _, bits := range []int{1, 8, 16, 64} {
		cd := NewDigitCD(Encoder[uint64]{Bits: bits, Encode: func(v uint64) uint64 { return v }})
		ctx := &countingCtx{}
		cd.Check(ctx, 0)
		if ctx.steps != 2*bits {
			t.Errorf("bits=%d: check cost %d, want %d", bits, ctx.steps, 2*bits)
		}
		if cd.StepBound() != 2*bits {
			t.Errorf("bits=%d: StepBound %d", bits, cd.StepBound())
		}
	}
}

func TestHashEncoderDeterministicAndSpread(t *testing.T) {
	enc := HashEncoder[string]()
	if enc.Bits != 64 {
		t.Fatalf("Bits = %d", enc.Bits)
	}
	if enc.Encode("x") != enc.Encode("x") {
		t.Fatal("hash encoder not deterministic")
	}
	if err := quick.Check(func(a, b string) bool {
		if a == b {
			return enc.Encode(a) == enc.Encode(b)
		}
		return enc.Encode(a) != enc.Encode(b) // collision: astronomically unlikely
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityEncoder(t *testing.T) {
	enc := IdentityEncoder(8)
	if enc.Bits != 8 {
		t.Fatalf("Bits = %d", enc.Bits)
	}
	if enc.Encode(200) != 200 {
		t.Fatal("identity encoder mangled value")
	}
}

// fmtHash is HashEncoder's general path — 64-bit FNV-1a over the value's
// %v rendering — and the reference its string fast path must match.
func fmtHash(v any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", v)
	return h.Sum64()
}

// shouty is a named string type whose String method changes its %v
// rendering, so it must stay on the fmt path.
type shouty string

func (s shouty) String() string { return strings.ToUpper(string(s)) }

// TestHashEncoderStringFastPath pins the string fast path bit-for-bit to
// the fmt encoding: the codes pick the digit detectors two values
// conflict in, so a changed code would change protocol executions and
// every step count pinned downstream.
func TestHashEncoderStringFastPath(t *testing.T) {
	enc := HashEncoder[string]()
	for _, s := range []string{
		"",
		"a",
		"hello world",
		"héllo, 世界 — ∑",
		"\xff\xfe invalid utf-8 \x00 nul",
		"rsm-batch/v1\n",
		"rsm-batch/v1\n1 7 42 \"k001\" \"v\\n x\"\n3 7 43 \"ctr\" \"\"\n",
		strings.Repeat("0123456789", 100),
	} {
		if got, want := enc.Encode(s), fmtHash(s); got != want {
			t.Errorf("Encode(%q) = %#x, fmt path %#x", s, got, want)
		}
	}
	// One absolute point pins the FNV-1a constants themselves.
	if got := enc.Encode("a"); got != 0xaf63dc4c8601ec8c {
		t.Errorf("Encode(\"a\") = %#x, want FNV-1a 0xaf63dc4c8601ec8c", got)
	}
	if got := testing.AllocsPerRun(100, func() { _ = enc.Encode("rsm-batch/v1\n") }); got != 0 {
		t.Errorf("string Encode allocates %v times, want 0", got)
	}

	// Other types keep the fmt path, including string types whose %v
	// rendering differs from their bytes.
	if got, want := HashEncoder[shouty]().Encode("abc"), fmtHash(shouty("abc")); got != want {
		t.Errorf("named string Encode = %#x, fmt path %#x", got, want)
	}
	if HashEncoder[shouty]().Encode("abc") != enc.Encode("ABC") {
		t.Error("named string type bypassed its String method")
	}
	if got, want := HashEncoder[int]().Encode(42), fmtHash(42); got != want {
		t.Errorf("int Encode = %#x, fmt path %#x", got, want)
	}
}

// composedDigitCD is DigitCD's composed form: one FlagsCD(2) per digit,
// each checked with the code's bit for that digit.
type composedDigitCD []*FlagsCD

func newComposedDigitCD(bits int) composedDigitCD {
	c := make(composedDigitCD, bits)
	for i := range c {
		c[i] = NewFlagsCD(2)
	}
	return c
}

func (c composedDigitCD) Check(ctx memory.Context, code int) bool {
	ok := true
	for i, digit := range c {
		if !digit.Check(ctx, (code>>i)&1) {
			ok = false
		}
	}
	return ok
}

// TestDigitCDMatchesComposedFlagsCDs pins the flat register layout to the
// composition of binary FlagsCDs it replaces: under every two-process
// interleaving, for codes differing in no, one and several digits, both
// forms return the same Check results and charge each process the same
// steps.
func TestDigitCDMatchesComposedFlagsCDs(t *testing.T) {
	const bits = 3
	for _, pair := range [][2]int{{5, 5}, {0, 0}, {4, 5}, {2, 4}, {1, 6}, {0, 7}} {
		t.Run(fmt.Sprintf("codes %v", pair), func(t *testing.T) {
			for _, slots := range sched.AllInterleavings([]int{2 * bits, 2 * bits}) {
				flat := NewDigitCD(IdentityEncoder(bits))
				flatOKs, _, flatRes, err := sim.Collect(sched.NewExplicit(2, slots), sim.Config{AlgSeed: 1}, func(p *sim.Proc) bool {
					return flat.Check(p, pair[p.ID()])
				})
				if err != nil {
					t.Fatalf("schedule %v: flat: %v", slots, err)
				}
				composed := newComposedDigitCD(bits)
				compOKs, _, compRes, err := sim.Collect(sched.NewExplicit(2, slots), sim.Config{AlgSeed: 1}, func(p *sim.Proc) bool {
					return composed.Check(p, pair[p.ID()])
				})
				if err != nil {
					t.Fatalf("schedule %v: composed: %v", slots, err)
				}
				for pid := 0; pid < 2; pid++ {
					if flatOKs[pid] != compOKs[pid] {
						t.Fatalf("schedule %v: process %d Check = %v flat, %v composed", slots, pid, flatOKs[pid], compOKs[pid])
					}
					if flatRes.Steps[pid] != compRes.Steps[pid] {
						t.Fatalf("schedule %v: process %d took %d steps flat, %d composed", slots, pid, flatRes.Steps[pid], compRes.Steps[pid])
					}
				}
			}
		})
	}
}
