// Package sched models the oblivious adversary of Section 1.1: a schedule
// is a sequence of process ids fixed in advance, independent of the coin
// flips made by the processes. A Source produces that sequence; every
// Source here is a deterministic function of its own seed and never
// observes protocol state, which makes the resulting adversary oblivious
// by construction.
//
// The package also provides finite explicit schedules and an interleaving
// enumerator used to model-check small shared objects over every possible
// schedule.
package sched

import (
	"fmt"
	"math"

	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// Exhausted is returned by Source.Next when a finite schedule has no more
// slots. Infinite sources never return it.
const Exhausted = -1

// Source yields the adversary's schedule, one process id per step slot.
type Source interface {
	// N returns the number of processes the schedule covers.
	N() int
	// Next returns the id of the process scheduled for the next slot, or
	// Exhausted for finite schedules that have ended.
	Next() int
}

// CrashAware is implemented by sources that permanently stop scheduling
// some processes; the runner uses it to decide when an execution is
// complete even though crashed processes will never finish.
type CrashAware interface {
	// Alive reports whether the source may still schedule pid.
	Alive(pid int) bool
}

// Skipper is implemented by sources that can look ahead without drawing:
// RoundRobin and Explicit here, and trace.ReplaySource, whose upcoming
// slots are fixed by a cursor. After an uncharged no-op slot (a finished
// or crashed process, per the paper's model) the simulator uses it to
// fast-forward over the no-op slots that follow without paying one
// driver-loop iteration per slot. A source that must draw to see its
// next slot can do no better than the driver's own draw-and-test loop,
// so the random sources do not implement it.
type Skipper interface {
	// SkipWhile consumes upcoming slots as long as pred accepts their pid
	// and returns how many slots were consumed. The first slot whose pid
	// pred rejects (or the end of a finite schedule) is not consumed: the
	// next call to Next returns it. The consumed slots are exactly the
	// ones Next would have produced, so interleaving SkipWhile with Next
	// never changes the schedule.
	//
	// If pred accepts every pid a source can still emit, a call stops
	// after one full cycle (RoundRobin) or at the end of the schedule;
	// callers that need a run to end must still reject some pid.
	SkipWhile(pred func(pid int) bool) int64
}

// Kind names a built-in schedule family for experiment sweeps.
type Kind int

const (
	// KindRoundRobin schedules 0, 1, ..., n-1, 0, 1, ...
	KindRoundRobin Kind = iota + 1
	// KindRandom schedules a uniformly random process each slot.
	KindRandom
	// KindStaggered runs each process for a block of consecutive slots
	// before moving on, in a seeded random process order per sweep.
	KindStaggered
	// KindSplit alternates long phases between the two halves of the
	// processes, so the halves rarely observe each other mid-phase.
	KindSplit
	// KindZipf schedules processes with Zipf-skewed frequencies, starving
	// high-rank processes.
	KindZipf
	// KindCrashHalf behaves like KindRandom but permanently crashes half
	// of the processes partway through the execution.
	KindCrashHalf
)

// Kinds lists every built-in schedule family, for sweeps.
func Kinds() []Kind {
	return []Kind{KindRoundRobin, KindRandom, KindStaggered, KindSplit, KindZipf, KindCrashHalf}
}

// String returns the family name.
func (k Kind) String() string {
	switch k {
	case KindRoundRobin:
		return "round-robin"
	case KindRandom:
		return "random"
	case KindStaggered:
		return "staggered"
	case KindSplit:
		return "split"
	case KindZipf:
		return "zipf"
	case KindCrashHalf:
		return "crash-half"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindByName parses a Kind from its String form, for flag values and
// replay artifacts.
func KindByName(name string) (Kind, bool) {
	for _, k := range Kinds() {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// New builds a Source of the given family for n processes, deterministic
// in seed. The adversary seed must be independent of the algorithm seed to
// model an oblivious adversary; keeping the two in separate xrand streams
// is the caller's responsibility (the simulator's Config does this).
func New(kind Kind, n int, seed uint64) Source {
	rng := xrand.New(seed)
	switch kind {
	case KindRoundRobin:
		return NewRoundRobin(n)
	case KindRandom:
		return NewRandom(n, rng)
	case KindStaggered:
		return NewStaggered(n, 8, rng)
	case KindSplit:
		return NewSplit(n, 4*n)
	case KindZipf:
		return NewZipf(n, 1.2, rng)
	case KindCrashHalf:
		return NewCrashHalf(n, rng)
	default:
		panic(fmt.Sprintf("sched: unknown kind %d", kind))
	}
}

// Compile-time checks for the sources that can skip without drawing.
var (
	_ Skipper = (*RoundRobin)(nil)
	_ Skipper = (*Explicit)(nil)
)

// RoundRobin cycles through all processes in id order.
type RoundRobin struct {
	n, i int
}

// NewRoundRobin returns a round-robin source over n processes.
func NewRoundRobin(n int) *RoundRobin {
	mustPositive(n)
	return &RoundRobin{n: n}
}

// N implements Source.
func (s *RoundRobin) N() int { return s.n }

// Next implements Source.
func (s *RoundRobin) Next() int {
	id := s.i
	s.i = (s.i + 1) % s.n
	return id
}

// SkipWhile implements Skipper by peeking at the cycle directly. It stops
// after one full cycle even when pred accepts everything, so a caller
// violating the Skipper contract still makes (countable) progress.
func (s *RoundRobin) SkipWhile(pred func(pid int) bool) int64 {
	var skipped int64
	for skipped < int64(s.n) && pred(s.i) {
		s.i = (s.i + 1) % s.n
		skipped++
	}
	return skipped
}

// Random schedules a uniform process each slot.
type Random struct {
	n   int
	rng *xrand.Rand
}

// NewRandom returns a uniform random source over n processes.
func NewRandom(n int, rng *xrand.Rand) *Random {
	mustPositive(n)
	return &Random{n: n, rng: rng}
}

// N implements Source.
func (s *Random) N() int { return s.n }

// Next implements Source.
func (s *Random) Next() int {
	return s.rng.Intn(s.n)
}

// Staggered runs each process for block consecutive slots, visiting
// processes in a fresh random order each sweep. This is the classic
// adversary against protocols that rely on processes seeing each other's
// recent writes.
type Staggered struct {
	n, block int
	rng      *xrand.Rand
	order    []int
	pos, rem int
}

// NewStaggered returns a staggered source with the given block length.
func NewStaggered(n, block int, rng *xrand.Rand) *Staggered {
	mustPositive(n)
	if block < 1 {
		block = 1
	}
	return &Staggered{n: n, block: block, rng: rng}
}

// N implements Source.
func (s *Staggered) N() int { return s.n }

// Next implements Source.
func (s *Staggered) Next() int {
	if s.rem == 0 {
		if s.pos == 0 || s.pos >= s.n {
			s.order = s.rng.Perm(s.n)
			s.pos = 0
		}
		s.rem = s.block
		s.pos++
	}
	s.rem--
	return s.order[s.pos-1]
}

// Split alternates phases of length phaseLen between the low half and the
// high half of the process ids (round-robin within a half). Within a
// phase, a half runs as if the other half were suspended.
type Split struct {
	n, phaseLen int
	slot        int
	lo, hi      int
}

// NewSplit returns a split source; phases shorter than 1 are clamped.
func NewSplit(n, phaseLen int) *Split {
	mustPositive(n)
	if phaseLen < 1 {
		phaseLen = 1
	}
	return &Split{n: n, phaseLen: phaseLen}
}

// N implements Source.
func (s *Split) N() int { return s.n }

// Next implements Source.
func (s *Split) Next() int {
	half := s.n / 2
	if half == 0 {
		return 0
	}
	phase := (s.slot / s.phaseLen) % 2
	s.slot++
	if phase == 0 {
		id := s.lo % half
		s.lo++
		return id
	}
	id := half + s.hi%(s.n-half)
	s.hi++
	return id
}

// Zipf schedules process ranked r with probability proportional to
// 1/(r+1)^exponent, starving high ids.
type Zipf struct {
	n   int
	rng *xrand.Rand
	cdf []float64
}

// NewZipf returns a Zipf-skewed source with the given exponent (> 0).
func NewZipf(n int, exponent float64, rng *xrand.Rand) *Zipf {
	mustPositive(n)
	cdf := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), exponent)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{n: n, rng: rng, cdf: cdf}
}

// N implements Source.
func (s *Zipf) N() int { return s.n }

// Next implements Source.
func (s *Zipf) Next() int {
	u := s.rng.Float64()
	lo, hi := 0, s.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// CrashHalf schedules uniformly at random, then crashes a random half of
// the processes after a seeded number of slots. Crashed processes are
// never scheduled again (the adversary simply stops allocating them
// steps, which in the wait-free model is indistinguishable from a crash).
type CrashHalf struct {
	n       int
	rng     *xrand.Rand
	cutoff  int
	slot    int
	crashed []bool
	live    []int
}

// NewCrashHalf returns a crash-half source; the crash set and crash time
// derive from rng.
func NewCrashHalf(n int, rng *xrand.Rand) *CrashHalf {
	mustPositive(n)
	s := &CrashHalf{
		n:       n,
		rng:     rng,
		cutoff:  n + rng.Intn(4*n+1),
		crashed: make([]bool, n),
	}
	perm := rng.Perm(n)
	for _, pid := range perm[:n/2] {
		s.crashed[pid] = true
	}
	for pid := 0; pid < n; pid++ {
		if !s.crashed[pid] {
			s.live = append(s.live, pid)
		}
	}
	return s
}

var _ CrashAware = (*CrashHalf)(nil)

// N implements Source.
func (s *CrashHalf) N() int { return s.n }

// Next implements Source.
func (s *CrashHalf) Next() int {
	s.slot++
	if s.slot <= s.cutoff {
		return s.rng.Intn(s.n)
	}
	return s.live[s.rng.Intn(len(s.live))]
}

// Alive implements CrashAware. All processes are alive until the cutoff
// slot has been scheduled, so victims really do take steps (and leave
// partial writes behind) before crashing.
func (s *CrashHalf) Alive(pid int) bool { return s.slot <= s.cutoff || !s.crashed[pid] }

// Favored alternates between one favored process (every even slot) and a
// round-robin over everyone else. It is the cheap-to-complete skewed
// adversary: the favored process runs at n-1 times the rate of each
// other process, which exposes protocols whose per-process cost depends
// on being interleaved with others (the CIL spin loop), while every
// process still makes progress.
type Favored struct {
	n, slot, next int
}

// NewFavored returns a favored-process source (pid 0 is favored). For
// n = 1 it degenerates to round-robin.
func NewFavored(n int) *Favored {
	mustPositive(n)
	return &Favored{n: n, next: 1}
}

// N implements Source.
func (s *Favored) N() int { return s.n }

// Next implements Source.
func (s *Favored) Next() int {
	s.slot++
	if s.n == 1 || s.slot%2 == 1 {
		return 0
	}
	id := s.next
	s.next++
	if s.next >= s.n {
		s.next = 1
	}
	return id
}

// CrashSet wraps a source and permanently crashes an explicit set of
// processes once the given number of slots has been consumed. Unlike
// CrashHalf, the victims and the cutoff are chosen by the caller, which
// is what exhaustive failure-injection tests need.
type CrashSet struct {
	inner   Source
	crashed map[int]bool
	cutoff  int
	slot    int
	live    []int
	rng     *xrand.Rand
}

// NewCrashSet returns a source that behaves like inner until cutoff slots
// have been issued and afterwards schedules only processes outside the
// victim set (uniformly at random from a stream derived from seed). At
// least one process must survive.
func NewCrashSet(inner Source, victims []int, cutoff int, seed uint64) *CrashSet {
	s := &CrashSet{
		inner:   inner,
		crashed: make(map[int]bool, len(victims)),
		cutoff:  cutoff,
		rng:     xrand.New(seed),
	}
	for _, v := range victims {
		s.crashed[v] = true
	}
	for pid := 0; pid < inner.N(); pid++ {
		if !s.crashed[pid] {
			s.live = append(s.live, pid)
		}
	}
	if len(s.live) == 0 {
		panic("sched: CrashSet must leave at least one process alive")
	}
	return s
}

var _ CrashAware = (*CrashSet)(nil)

// N implements Source.
func (s *CrashSet) N() int { return s.inner.N() }

// Next implements Source.
func (s *CrashSet) Next() int {
	s.slot++
	if s.slot <= s.cutoff {
		return s.inner.Next()
	}
	return s.live[s.rng.Intn(len(s.live))]
}

// Alive implements CrashAware.
func (s *CrashSet) Alive(pid int) bool { return s.slot <= s.cutoff || !s.crashed[pid] }

// Explicit is a finite schedule, used by the model-checking tests to
// enumerate interleavings exactly.
type Explicit struct {
	n     int
	slots []int
	pos   int
}

// NewExplicit returns a finite schedule over n processes.
func NewExplicit(n int, slots []int) *Explicit {
	mustPositive(n)
	cp := make([]int, len(slots))
	copy(cp, slots)
	return &Explicit{n: n, slots: cp}
}

// N implements Source.
func (s *Explicit) N() int { return s.n }

// Next implements Source; returns Exhausted once the schedule ends.
func (s *Explicit) Next() int {
	if s.pos >= len(s.slots) {
		return Exhausted
	}
	id := s.slots[s.pos]
	s.pos++
	return id
}

// SkipWhile implements Skipper by peeking at the slot list directly; it
// stops (without consuming anything further) when the schedule ends.
func (s *Explicit) SkipWhile(pred func(pid int) bool) int64 {
	var skipped int64
	for s.pos < len(s.slots) && pred(s.slots[s.pos]) {
		s.pos++
		skipped++
	}
	return skipped
}

// Remaining returns how many slots are left.
func (s *Explicit) Remaining() int { return len(s.slots) - s.pos }

// AllInterleavings enumerates every interleaving of counts[i] steps for
// process i, as explicit slot sequences. The number of interleavings is
// the multinomial coefficient; callers are expected to keep counts small
// (model checking of 2-3 process objects).
func AllInterleavings(counts []int) [][]int {
	total := 0
	for _, c := range counts {
		if c < 0 {
			panic("sched: negative step count")
		}
		total += c
	}
	var (
		out  [][]int
		cur  = make([]int, 0, total)
		left = make([]int, len(counts))
	)
	copy(left, counts)
	var rec func()
	rec = func() {
		if len(cur) == total {
			cp := make([]int, total)
			copy(cp, cur)
			out = append(out, cp)
			return
		}
		for pid := range left {
			if left[pid] == 0 {
				continue
			}
			left[pid]--
			cur = append(cur, pid)
			rec()
			cur = cur[:len(cur)-1]
			left[pid]++
		}
	}
	rec()
	return out
}

// CountInterleavings returns the number of interleavings AllInterleavings
// would produce, without materializing them.
func CountInterleavings(counts []int) int {
	total, result := 0, 1
	for _, c := range counts {
		for i := 1; i <= c; i++ {
			total++
			result = result * total / i
		}
	}
	return result
}

func mustPositive(n int) {
	if n <= 0 {
		panic("sched: number of processes must be positive")
	}
}
