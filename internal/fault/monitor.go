package fault

import (
	"fmt"

	"github.com/oblivious-consensus/conciliator/internal/linearize"
	"github.com/oblivious-consensus/conciliator/internal/memory"
)

// Violation is one safety-monitor firing. Monitor names are stable
// strings used in reports and repro artifacts:
//
//	agreement        two finished processes decided different values
//	validity         a decided value was nobody's input
//	ac-coherence     an adopt-commit phase with a commit returned a
//	                 different value to someone
//	ac-validity      an adopt-commit returned a value nobody proposed
//	                 to it
//	ac-convergence   an adopt-commit adopted although all proposals
//	                 were equal (equivalently: adopt without conflict)
//	maxreg-monotonic a max register ran backwards
//	nontermination   the slot budget fired
//	panic            a process body panicked
type Violation struct {
	Monitor string `json:"monitor"`
	Detail  string `json:"detail"`
}

func (v Violation) String() string { return v.Monitor + ": " + v.Detail }

// acObs is one completed adopt-commit Propose.
type acObs struct {
	pid    int
	in     int
	out    int
	commit bool
}

// acPhase accumulates one adopt-commit phase's observations. proposed
// holds every STARTED proposal's value, obs only completed Proposes: a
// crash-recovery fault can abort a Propose whose value already reached
// shared state, and such a value legitimately raises conflicts and can
// be returned to others — so convergence and validity must be judged
// against the started set, while coherence (all commits equal) needs
// only completions.
type acPhase struct {
	proposed map[int]bool
	obs      []acObs
}

// Monitor checks the paper's safety properties over one consensus trial:
// final agreement and validity, plus per-phase adopt-commit coherence,
// validity, and convergence from the Propose observations an
// adoptcommit.Checked wrapper feeds it. It is deliberately property-
// based, not implementation-based: the same checks apply whether the
// run was atomic or faulted, which is what makes the fault sweep an
// oracle rather than a tautology.
//
// A Monitor serves one controlled run; the engine's sequentiality means
// no locking is needed.
type Monitor struct {
	phases     []*acPhase
	violations []Violation
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor { return &Monitor{} }

func (m *Monitor) phase(k int) *acPhase {
	for len(m.phases) <= k {
		m.phases = append(m.phases, &acPhase{proposed: make(map[int]bool)})
	}
	return m.phases[k]
}

// ObserveACPropose records a STARTED adopt-commit Propose at the given
// phase — wire it from the Completed=false observations of
// adoptcommit.NewChecked. Under crash-recovery faults some of these
// never complete, yet their values still count as proposed.
func (m *Monitor) ObserveACPropose(phase, pid, in int) {
	m.phase(phase).proposed[in] = true
}

// ObserveAC records one completed adopt-commit Propose at the given
// phase; wire it through adoptcommit.NewChecked. The input is also
// added to the phase's proposed set, so a monitor fed only completions
// degrades gracefully rather than misjudging validity.
func (m *Monitor) ObserveAC(phase, pid, in, out int, commit bool) {
	ph := m.phase(phase)
	ph.proposed[in] = true
	ph.obs = append(ph.obs, acObs{pid: pid, in: in, out: out, commit: commit})
}

// Report appends a violation directly; used by the trial harness for
// the nontermination and panic monitors.
func (m *Monitor) Report(monitor, format string, args ...any) {
	m.violations = append(m.violations, Violation{Monitor: monitor, Detail: fmt.Sprintf(format, args...)})
}

// CheckOutcome checks final agreement (all finished processes decided
// the same value) and validity (the decision is some process's input).
// inputs[i] is process i's consensus input, outs[i] its decision, and
// finished[i] whether it decided.
func (m *Monitor) CheckOutcome(inputs, outs []int, finished []bool) {
	valid := make(map[int]bool, len(inputs))
	for _, in := range inputs {
		valid[in] = true
	}
	first := -1
	for i := range outs {
		if !finished[i] {
			continue
		}
		if !valid[outs[i]] {
			m.Report("validity", "process %d decided %d, which no process proposed", i, outs[i])
		}
		if first < 0 {
			first = i
			continue
		}
		if outs[i] != outs[first] {
			m.Report("agreement", "process %d decided %d but process %d decided %d", first, outs[first], i, outs[i])
		}
	}
}

// Finish runs the per-phase adopt-commit checks and returns every
// violation the monitor accumulated.
func (m *Monitor) Finish() []Violation {
	for phase, ph := range m.phases {
		obs := ph.obs
		if len(obs) == 0 {
			continue
		}
		proposed := ph.proposed
		committed := false
		var commitVal int
		for _, o := range obs {
			if !o.commit {
				continue
			}
			if committed && o.out != commitVal {
				m.Report("ac-coherence", "phase %d: commits of both %d and %d", phase, commitVal, o.out)
			}
			committed, commitVal = true, o.out
		}
		for _, o := range obs {
			if !proposed[o.out] {
				m.Report("ac-validity", "phase %d: process %d got back %d, which nobody proposed", phase, o.pid, o.out)
			}
			if committed && o.out != commitVal {
				m.Report("ac-coherence", "phase %d: %d committed but process %d got %d", phase, commitVal, o.pid, o.out)
			}
			if !o.commit && len(proposed) == 1 {
				m.Report("ac-convergence", "phase %d: all proposals were %d yet process %d adopted", phase, o.in, o.pid)
			}
		}
	}
	return m.violations
}

// Violations returns what has been reported so far without running the
// Finish checks.
func (m *Monitor) Violations() []Violation { return m.violations }

// pidOf extracts the calling process id from a Context that carries one
// (the simulator's process handle does).
func pidOf(ctx memory.Context) int {
	if p, ok := ctx.(interface{ ID() int }); ok {
		return p.ID()
	}
	return 0
}

// MonitoredMaxer wraps a memory.Maxer with the max-register
// monotonicity monitor. The first monitorHistoryLimit operations are
// recorded into a linearize history and checked against
// MaxRegisterSemantics at Finish, unless more operations complete; beyond
// the window (and alongside it) two online invariants valid for any
// linearizable max register are enforced per operation:
//
//   - a read returns a key at least as large as every write that
//     completed before the read began, and
//   - one process's successive reads never decrease.
//
// Keys must fit in int64 and process ids must be non-negative.
type MonitoredMaxer[T any] struct {
	inner memory.Maxer[T]
	mon   *Monitor
	rec   linearize.Recorder
	// done counts completed operations. Once it passes
	// monitorHistoryLimit, Finish has no history to check, so operations
	// that start after the window filled are not recorded.
	done int

	maxDone uint64 // largest key of a completed WriteMax
	anyDone bool
	// lastRead[pid] is 1 + the key pid last read, or 0 before its first
	// successful read (keys fit in int64, so 1 + key cannot wrap). It
	// grows to the largest pid seen.
	lastRead []uint64
}

// monitorHistoryLimit keeps recorded histories inside linearize.Check's
// 64-op window.
const monitorHistoryLimit = 64

var _ memory.Maxer[int] = (*MonitoredMaxer[int])(nil)

// NewMonitoredMaxer wraps inner, reporting violations into mon.
func NewMonitoredMaxer[T any](inner memory.Maxer[T], mon *Monitor) *MonitoredMaxer[T] {
	return &MonitoredMaxer[T]{inner: inner, mon: mon}
}

// begin starts recording an operation and returns its start timestamp,
// or 0 when the operation is not recorded: one that starts after
// monitorHistoryLimit operations completed can only complete past the
// window, which leaves Finish nothing to check, and one that never
// completes is in no history. So whenever Finish checks, its history is
// the one recording every operation would have produced.
func (m *MonitoredMaxer[T]) begin() int64 {
	if m.done >= monitorHistoryLimit {
		return 0
	}
	return m.rec.Begin() // at least 1
}

// WriteMax implements memory.Maxer.
func (m *MonitoredMaxer[T]) WriteMax(ctx memory.Context, key uint64, payload T) {
	start := m.begin()
	m.inner.WriteMax(ctx, key, payload)
	if start != 0 {
		m.rec.EndWrite(pidOf(ctx), int64(key), start)
	}
	m.done++
	if !m.anyDone || key > m.maxDone {
		m.maxDone, m.anyDone = key, true
	}
}

// ReadMax implements memory.Maxer.
func (m *MonitoredMaxer[T]) ReadMax(ctx memory.Context) (uint64, T, bool) {
	// Writes completed before the read begins are a lower bound on any
	// linearizable read's result; writes overlapping the read are not.
	floorSet, floor := m.anyDone, m.maxDone
	start := m.begin()
	k, payload, ok := m.inner.ReadMax(ctx)
	pid := pidOf(ctx)
	if start != 0 {
		var out int64
		if ok {
			out = int64(k)
		}
		m.rec.EndRead(pid, out, ok, start)
	}
	m.done++

	if floorSet && (!ok || k < floor) {
		m.mon.Report("maxreg-monotonic",
			"process %d read max %d (ok=%v) after a write of %d completed", pid, k, ok, floor)
	}
	if !ok {
		return k, payload, ok
	}
	if pid >= len(m.lastRead) {
		m.lastRead = append(m.lastRead, make([]uint64, pid+1-len(m.lastRead))...)
	}
	if last := m.lastRead[pid]; last != 0 && k < last-1 {
		m.mon.Report("maxreg-monotonic",
			"process %d read max %d after previously reading %d", pid, k, last-1)
	}
	m.lastRead[pid] = k + 1
	return k, payload, ok
}

// Finish runs the linearizability check over the recorded window (only
// when no more operations completed — a truncated history could cite a
// write the checker never sees) and reports a violation if no witness
// linearization exists.
func (m *MonitoredMaxer[T]) Finish() {
	if m.done > monitorHistoryLimit {
		return
	}
	hist := m.rec.History()
	ok, err := linearize.Check(linearize.MaxRegisterSemantics{}, hist)
	if err != nil {
		m.mon.Report("maxreg-monotonic", "linearize check failed to run: %v", err)
		return
	}
	if !ok {
		m.mon.Report("maxreg-monotonic", "max-register history of %d ops has no linearization", len(hist))
	}
}
