package sched

import (
	"fmt"

	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// SegmentMode selects how one Program segment schedules its slots.
type SegmentMode int

const (
	// SegWeighted draws each slot from the program's per-process weights.
	SegWeighted SegmentMode = iota + 1
	// SegRoundRobin cycles through process ids in ascending order.
	SegRoundRobin
	// SegReverse cycles through process ids in descending order — the
	// phase-reversal pattern that maximally disagrees with SegRoundRobin
	// about who has seen whose writes.
	SegReverse
	// SegBurst grants every slot of the segment to one process.
	SegBurst
	// SegStarve draws from the weights restricted to processes outside
	// the segment's starve mask.
	SegStarve
)

// String returns the mode name used in artifacts.
func (m SegmentMode) String() string {
	switch m {
	case SegWeighted:
		return "weighted"
	case SegRoundRobin:
		return "round-robin"
	case SegReverse:
		return "reverse"
	case SegBurst:
		return "burst"
	case SegStarve:
		return "starve"
	default:
		return fmt.Sprintf("SegmentMode(%d)", int(m))
	}
}

// SegmentModeByName parses a SegmentMode from its String form.
func SegmentModeByName(name string) (SegmentMode, bool) {
	for _, m := range []SegmentMode{SegWeighted, SegRoundRobin, SegReverse, SegBurst, SegStarve} {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// ProgramSegment is one piece of a Program's cyclic schedule: Len slots
// produced in the given mode. Pid targets SegBurst; Mask is the SegStarve
// bitmask of processes the segment refuses to schedule (bit i = pid i).
type ProgramSegment struct {
	Mode SegmentMode
	Len  int
	Pid  int
	Mask uint64
}

// ProgramSpec parameterizes a Program. Weights are per-process scheduling
// weights (empty = uniform; every entry must be positive so each process
// keeps being scheduled); Prefix is an explicit slot sequence played once
// before the cyclic Segments program. With no segments the weighted draw
// runs forever.
type ProgramSpec struct {
	Weights  []int64
	Prefix   []int
	Segments []ProgramSegment
}

// Program is the parameterized oblivious schedule family the adversary
// search optimizes over: an explicit prefix, then a cyclic program of
// skew/burst/starvation/reversal segments driven by integer weights. Like
// every Source in this package it is a pure function of (spec, rng) and
// never observes protocol state, so any Program — including a searched
// worst case — is an oblivious adversary by construction.
type Program struct {
	n        int
	spec     ProgramSpec
	rng      *xrand.Rand
	cum      []int64   // full cumulative weights
	segCum   [][]int64 // per-segment cumulative weights (starve masks applied)
	total    int64
	segTotal []int64
	prefix   int // next prefix position
	seg      int // current segment index
	segRem   int // slots left in the current segment
	asc      int // ascending round-robin cursor
	desc     int // descending cursor
}

var _ Source = (*Program)(nil)

// NewProgram builds a Program over n processes. It validates the spec:
// weights must be empty or n positive entries; prefix pids must be in
// range; segments need positive lengths, in-range burst pids, and starve
// masks that leave at least one process schedulable; and when segments
// are present every process must be schedulable by at least one of them,
// so no process is starved forever (the run would never complete).
func NewProgram(n int, spec ProgramSpec, rng *xrand.Rand) (*Program, error) {
	mustPositive(n)
	if n > 64 {
		return nil, fmt.Errorf("sched: Program supports at most 64 processes (starve masks are 64-bit), got %d", n)
	}
	weights := spec.Weights
	if len(weights) == 0 {
		weights = make([]int64, n)
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != n {
		return nil, fmt.Errorf("sched: Program has %d weights for %d processes", len(weights), n)
	}
	p := &Program{n: n, spec: spec, rng: rng, cum: make([]int64, n)}
	for i, w := range weights {
		if w < 1 {
			return nil, fmt.Errorf("sched: Program weight %d for pid %d must be positive", w, i)
		}
		p.total += w
		p.cum[i] = p.total
	}
	for i, pid := range spec.Prefix {
		if pid < 0 || pid >= n {
			return nil, fmt.Errorf("sched: Program prefix slot %d schedules pid %d outside [0, %d)", i, pid, n)
		}
	}
	full := uint64(1)<<uint(n) - 1
	covered := make([]bool, n)
	for i, seg := range spec.Segments {
		if seg.Len < 1 {
			return nil, fmt.Errorf("sched: Program segment %d has non-positive length %d", i, seg.Len)
		}
		switch seg.Mode {
		case SegWeighted, SegRoundRobin, SegReverse:
			for pid := range covered {
				covered[pid] = true
			}
		case SegBurst:
			if seg.Pid < 0 || seg.Pid >= n {
				return nil, fmt.Errorf("sched: Program segment %d bursts pid %d outside [0, %d)", i, seg.Pid, n)
			}
			covered[seg.Pid] = true
		case SegStarve:
			if seg.Mask&^full != 0 {
				return nil, fmt.Errorf("sched: Program segment %d starves pids outside [0, %d)", i, n)
			}
			if seg.Mask == full {
				return nil, fmt.Errorf("sched: Program segment %d starves every process", i)
			}
			for pid := 0; pid < n; pid++ {
				if seg.Mask&(1<<uint(pid)) == 0 {
					covered[pid] = true
				}
			}
		default:
			return nil, fmt.Errorf("sched: Program segment %d has unknown mode %d", i, int(seg.Mode))
		}
	}
	if len(spec.Segments) > 0 {
		for pid, ok := range covered {
			if !ok {
				return nil, fmt.Errorf("sched: Program never schedules pid %d after the prefix", pid)
			}
		}
	}
	// Precompute each starve segment's restricted cumulative weights, so
	// a draw is O(log n) with no rejection sampling.
	p.seg = len(spec.Segments) - 1 // the first advance wraps to segment 0
	p.segCum = make([][]int64, len(spec.Segments))
	p.segTotal = make([]int64, len(spec.Segments))
	for i, seg := range spec.Segments {
		if seg.Mode != SegStarve {
			continue
		}
		cum := make([]int64, n)
		var total int64
		for pid := 0; pid < n; pid++ {
			if seg.Mask&(1<<uint(pid)) == 0 {
				total += weights[pid]
			}
			cum[pid] = total
		}
		p.segCum[i], p.segTotal[i] = cum, total
	}
	return p, nil
}

// N implements Source.
func (p *Program) N() int { return p.n }

// Next implements Source. The program never ends: after the prefix the
// segment list cycles forever (or the weighted draw runs alone when the
// list is empty).
func (p *Program) Next() int {
	if p.prefix < len(p.spec.Prefix) {
		pid := p.spec.Prefix[p.prefix]
		p.prefix++
		return pid
	}
	if len(p.spec.Segments) == 0 {
		return p.drawWeighted(p.cum, p.total)
	}
	for p.segRem == 0 {
		p.seg = (p.seg + 1) % len(p.spec.Segments)
		p.segRem = p.spec.Segments[p.seg].Len
	}
	p.segRem--
	seg := p.spec.Segments[p.seg]
	switch seg.Mode {
	case SegRoundRobin:
		pid := p.asc
		p.asc = (p.asc + 1) % p.n
		return pid
	case SegReverse:
		pid := p.n - 1 - p.desc
		p.desc = (p.desc + 1) % p.n
		return pid
	case SegBurst:
		return seg.Pid
	case SegStarve:
		return p.drawWeighted(p.segCum[p.seg], p.segTotal[p.seg])
	default: // SegWeighted
		return p.drawWeighted(p.cum, p.total)
	}
}

// drawWeighted picks a pid with probability proportional to its weight,
// by binary search over the cumulative weights.
func (p *Program) drawWeighted(cum []int64, total int64) int {
	u := int64(p.rng.Uint64n(uint64(total)))
	lo, hi := 0, p.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Seq plays each source in turn, moving to the next when the current one
// is exhausted. It exists so a finite coin-aware prefix (internal/attack)
// can be grafted onto an infinite oblivious tail for apples-to-apples
// step comparisons; it is also how fuzzers compose explicit schedules.
// Seq is finite iff its last source is.
type Seq struct {
	n    int
	srcs []Source
	cur  int
}

var _ Source = (*Seq)(nil)

// NewSeq concatenates the given sources; they must all cover the same
// number of processes, and at least one is required.
func NewSeq(srcs ...Source) *Seq {
	if len(srcs) == 0 {
		panic("sched: Seq needs at least one source")
	}
	n := srcs[0].N()
	for _, s := range srcs[1:] {
		if s.N() != n {
			panic("sched: Seq sources cover different process counts")
		}
	}
	return &Seq{n: n, srcs: srcs}
}

// N implements Source.
func (s *Seq) N() int { return s.n }

// Next implements Source.
func (s *Seq) Next() int {
	for s.cur < len(s.srcs) {
		pid := s.srcs[s.cur].Next()
		if pid != Exhausted {
			return pid
		}
		s.cur++
	}
	return Exhausted
}
