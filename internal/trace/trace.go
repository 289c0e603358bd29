// Package trace records and replays schedules: a recording schedule
// source captures every slot of a controlled run, including crash
// observations, so the run can be replayed exactly (the debugging
// workflow for probabilistic protocols).
package trace

import (
	"fmt"

	"github.com/oblivious-consensus/conciliator/internal/sched"
)

// RecordingSource wraps a schedule source and records every slot it
// emits — and, for crash-aware sources, the slot at which each process
// was first observed dead — so the exact schedule of a run, including one
// produced by a stateful random source with crashes, can be replayed
// later. A RecordingSource deliberately does not implement sched.Skipper:
// bulk-skipped slots would bypass recording, so recorded runs take the
// slot-at-a-time path.
type RecordingSource struct {
	inner sched.Source
	ca    sched.CrashAware // nil when inner is not crash-aware
	slots []int
	// deadAt[pid] is the number of recorded slots after which pid was
	// first observed dead, or -1 while alive. Deaths are driven by the
	// slot clock, so checking after every emitted slot captures them at
	// exactly the granularity the simulator can observe.
	deadAt []int
}

var _ sched.Source = (*RecordingSource)(nil)

// Record wraps src.
func Record(src sched.Source) *RecordingSource {
	r := &RecordingSource{inner: src}
	if ca, ok := src.(sched.CrashAware); ok {
		r.ca = ca
		r.deadAt = make([]int, src.N())
		for pid := range r.deadAt {
			r.deadAt[pid] = -1
		}
		r.observeDeaths()
	}
	return r
}

// N implements sched.Source.
func (r *RecordingSource) N() int { return r.inner.N() }

// Next implements sched.Source, recording the emitted slot.
func (r *RecordingSource) Next() int {
	id := r.inner.Next()
	if id != sched.Exhausted {
		r.slots = append(r.slots, id)
		if r.ca != nil {
			r.observeDeaths()
		}
	}
	return id
}

func (r *RecordingSource) observeDeaths() {
	for pid, d := range r.deadAt {
		if d < 0 && !r.ca.Alive(pid) {
			r.deadAt[pid] = len(r.slots)
		}
	}
}

// Alive forwards crash-awareness when the inner source provides it.
func (r *RecordingSource) Alive(pid int) bool {
	if r.ca != nil {
		return r.ca.Alive(pid)
	}
	return true
}

// Slots returns a copy of the recorded schedule so far.
func (r *RecordingSource) Slots() []int {
	out := make([]int, len(r.slots))
	copy(out, r.slots)
	return out
}

// DeadSlots returns a copy of the recorded death slots (the slot count
// after which each process was first observed dead; -1 = never died),
// or nil when the inner source is not crash-aware. Together with Slots
// and N this is everything needed to rebuild the replay externally via
// NewReplay.
func (r *RecordingSource) DeadSlots() []int {
	if r.deadAt == nil {
		return nil
	}
	out := make([]int, len(r.deadAt))
	copy(out, r.deadAt)
	return out
}

// Replay returns a schedule source reproducing the recorded run. When the
// recording came from a crash-aware source the result is crash-aware too,
// reporting each process dead from the recorded slot onward — without
// this, replaying a crashed run would end in ErrScheduleExhausted (or
// grant crashed processes extra steps) instead of reproducing the
// original Result.
func (r *RecordingSource) Replay() sched.Source {
	if r.ca == nil {
		return sched.NewExplicit(r.inner.N(), r.Slots())
	}
	deadAt := make([]int, len(r.deadAt))
	copy(deadAt, r.deadAt)
	return &ReplaySource{n: r.inner.N(), slots: r.Slots(), deadAt: deadAt}
}

// ReplaySource replays a recorded crash schedule: the explicit slot list
// plus the recorded death slot of each process. Its crash clock is the
// number of slots consumed, mirroring the recording's granularity.
type ReplaySource struct {
	n      int
	slots  []int
	pos    int
	deadAt []int // first-observed-dead slot count per pid; -1 = never died
}

// NewReplay reconstructs a ReplaySource from externally stored recording
// data (the Slots/DeadSlots of a RecordingSource, typically round-tripped
// through a file). Unlike RecordingSource.Replay, whose inputs are
// internally consistent by construction, stored recordings can be
// hand-edited or truncated — so everything is validated here, returning a
// descriptive error instead of letting the simulator driver index out of
// range mid-run. deadAt may be nil for a crash-free recording; otherwise
// it must hold one entry per process, each -1 (never died) or a slot
// count within the recording.
func NewReplay(n int, slots, deadAt []int) (*ReplaySource, error) {
	if n <= 0 {
		return nil, fmt.Errorf("trace: replay needs a positive process count, got %d", n)
	}
	for i, pid := range slots {
		if pid < 0 || pid >= n {
			return nil, fmt.Errorf("trace: replay slot %d grants pid %d, want [0,%d)", i, pid, n)
		}
	}
	slotsCopy := make([]int, len(slots))
	copy(slotsCopy, slots)
	var deadCopy []int
	if deadAt != nil {
		if len(deadAt) != n {
			return nil, fmt.Errorf("trace: replay has %d death slots for %d processes", len(deadAt), n)
		}
		deadCopy = make([]int, n)
		for pid, d := range deadAt {
			switch {
			case d < -1:
				return nil, fmt.Errorf("trace: process %d has invalid death slot %d (want -1 or >= 0)", pid, d)
			case d > len(slots):
				return nil, fmt.Errorf("trace: process %d dies after slot %d but the recording holds only %d slots (truncated?)", pid, d, len(slots))
			}
			deadCopy[pid] = d
		}
	} else {
		deadCopy = make([]int, n)
		for pid := range deadCopy {
			deadCopy[pid] = -1
		}
	}
	return &ReplaySource{n: n, slots: slotsCopy, deadAt: deadCopy}, nil
}

var (
	_ sched.Source     = (*ReplaySource)(nil)
	_ sched.CrashAware = (*ReplaySource)(nil)
	_ sched.Skipper    = (*ReplaySource)(nil)
)

// N implements sched.Source.
func (s *ReplaySource) N() int { return s.n }

// Next implements sched.Source; returns Exhausted once the recording ends.
func (s *ReplaySource) Next() int {
	if s.pos >= len(s.slots) {
		return sched.Exhausted
	}
	id := s.slots[s.pos]
	s.pos++
	return id
}

// Alive implements sched.CrashAware from the recorded death slots.
func (s *ReplaySource) Alive(pid int) bool {
	d := s.deadAt[pid]
	return d < 0 || s.pos < d
}

// SkipWhile implements sched.Skipper by peeking at the slot list. The
// slot clock is advanced before pred runs and rewound on rejection, so
// pred observes Alive exactly as the driver does after drawing the slot
// with Next, and a rejected slot leaves the crash clock unchanged.
func (s *ReplaySource) SkipWhile(pred func(pid int) bool) int64 {
	var skipped int64
	for s.pos < len(s.slots) {
		pid := s.slots[s.pos]
		s.pos++
		if !pred(pid) {
			s.pos--
			return skipped
		}
		skipped++
	}
	return skipped
}
