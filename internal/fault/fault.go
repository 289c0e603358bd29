// Package fault is the fault-injection substrate: it stresses the
// reproduction under failure modes the paper's proofs do not cover and
// pairs every injected fault with a safety monitor and a counterexample
// shrinker, so a violation is never just a red number — it is a minimal,
// replayable artifact.
//
// The paper's guarantees (Algorithms 1-3, adopt-commit coherence) are
// proved on atomic registers, unit-cost snapshots, and clean permanent
// crashes, which is exactly what internal/memory and the sched crash
// sources implement. This package relaxes those assumptions along two
// axes:
//
//   - Register semantics: regular reads (a read overlapping a write may
//     return the previous value), safe reads (a read overlapping a write
//     may return any stale value, or the null value), and
//     bounded-staleness snapshot scans. Hadzilacos-Hu-Toueg (2020) show
//     randomized consensus is materially different on regular registers;
//     these faults let us observe which guarantees survive.
//   - Process faults beyond permanent crash: stutters (a process's next k
//     granted steps become no-ops), stalls (the scheduler starves a pid
//     for a window), and crash-recovery with amnesia (local state reset,
//     shared writes persist).
//
// A fault schedule is an explicit, finite list of events addressed by
// the deterministic clocks the simulator already exposes — the global
// slot clock for process faults, per-process read/scan operation indices
// for semantic faults. Explicit events make the schedule a pure value:
// generation from a seeded Plan, JSON round-tripping, replay, and
// delta-debugging shrinks all operate on the same representation, and a
// run is a pure function of (algorithm seed, schedule source, fault
// schedule).
//
// Injection is confined to controlled runs: the memory substrate
// consults its fault hooks only in the direct representation that
// controlled runs latch (the lock-free representation carries no fault
// code), and the simulator driver takes its fault branches only when a
// run carries a schedule.
package fault

import (
	"encoding/json"
	"fmt"
	"sort"

	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// Kind identifies one fault event family.
type Kind uint8

const (
	// Stutter makes the target's next Arg granted slots no-ops: the
	// process is scheduled but executes nothing (a slow or wedged
	// process, as seen by the schedule).
	Stutter Kind = iota + 1
	// Stall starves the target for Arg slots starting at Slot: the
	// scheduler's grants to it are consumed without running it.
	Stall
	// CrashRecover crashes the target at Slot and restarts it with
	// amnesia: the process body re-runs from the top with reset local
	// state (fresh stack and private randomness) while every shared
	// write it made persists.
	CrashRecover
	// StaleRead weakens the target's Op-th read-class operation: the
	// read returns the value Arg writes back in the object's history
	// (Arg = 0 returns the null value, modeling a safe register's
	// arbitrary result during an overlapping write).
	StaleRead
	// StaleScan weakens the target's Op-th snapshot scan: every
	// component reads Arg writes stale (bounded staleness).
	StaleScan
)

// String returns the event-family name used in JSON and flags.
func (k Kind) String() string {
	switch k {
	case Stutter:
		return "stutter"
	case Stall:
		return "stall"
	case CrashRecover:
		return "crash-recovery"
	case StaleRead:
		return "stale-read"
	case StaleScan:
		return "stale-scan"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindByName parses a Kind from its String form.
func KindByName(name string) (Kind, bool) {
	for _, k := range []Kind{Stutter, Stall, CrashRecover, StaleRead, StaleScan} {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// kindJSON bridges Kind to its stable string form in artifacts.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses the stable string form.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	kk, ok := KindByName(s)
	if !ok {
		return fmt.Errorf("fault: unknown kind %q", s)
	}
	*k = kk
	return nil
}

// Event is one injected fault. Process faults (Stutter, Stall,
// CrashRecover) are addressed by the global slot clock; semantic faults
// (StaleRead, StaleScan) are addressed by the target process's
// read-class or scan operation index, which the injector counts.
type Event struct {
	Kind Kind  `json:"kind"`
	Pid  int   `json:"pid"`
	Slot int64 `json:"slot,omitempty"` // process faults: fires when the slot clock reaches Slot
	Op   int64 `json:"op,omitempty"`   // semantic faults: fires on the Pid's Op-th read/scan (0-indexed)
	Arg  int64 `json:"arg,omitempty"`  // stutter/stall length, or staleness depth (0 = null read)
}

// slotAddressed reports whether the event fires off the slot clock.
func (e Event) slotAddressed() bool {
	return e.Kind == Stutter || e.Kind == Stall || e.Kind == CrashRecover
}

// Schedule is an explicit fault schedule for n processes: the unit of
// generation, injection, serialization, replay, and shrinking.
type Schedule struct {
	n      int
	events []Event
}

// scheduleJSON is the serialized form; SchemaFault names it.
type scheduleJSON struct {
	Schema string  `json:"schema"`
	N      int     `json:"n"`
	Events []Event `json:"events"`
}

// SchemaFault is the schema tag of serialized fault schedules.
const SchemaFault = "conciliator-fault/v1"

// NewSchedule builds a normalized schedule over n processes, validating
// every event. The input slice is copied.
func NewSchedule(n int, events []Event) (*Schedule, error) {
	s := &Schedule{n: n, events: append([]Event(nil), events...)}
	s.normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// N returns the process count the schedule targets.
func (s *Schedule) N() int { return s.n }

// Events returns a copy of the event list.
func (s *Schedule) Events() []Event { return append([]Event(nil), s.events...) }

// Len returns the number of events.
func (s *Schedule) Len() int { return len(s.events) }

// normalize sorts events into the canonical order: slot-addressed events
// by (Slot, Pid, Kind, Arg), then op-addressed events by (Pid, Op, Kind,
// Arg). Canonical order makes byte-identical round-trips well-defined
// and the injector's cursors O(1).
func (s *Schedule) normalize() {
	sort.SliceStable(s.events, func(a, b int) bool {
		ea, eb := s.events[a], s.events[b]
		sa, sb := ea.slotAddressed(), eb.slotAddressed()
		if sa != sb {
			return sa
		}
		if sa {
			if ea.Slot != eb.Slot {
				return ea.Slot < eb.Slot
			}
			if ea.Pid != eb.Pid {
				return ea.Pid < eb.Pid
			}
		} else {
			if ea.Pid != eb.Pid {
				return ea.Pid < eb.Pid
			}
			if ea.Op != eb.Op {
				return ea.Op < eb.Op
			}
		}
		if ea.Kind != eb.Kind {
			return ea.Kind < eb.Kind
		}
		return ea.Arg < eb.Arg
	})
}

// Validate checks every event for well-formedness: known kind, pid in
// range, non-negative clocks, and kind-appropriate arguments. The
// injector refuses invalid schedules, so a malformed artifact fails with
// a descriptive error instead of panicking the driver.
func (s *Schedule) Validate() error {
	if s.n <= 0 {
		return fmt.Errorf("fault: schedule has non-positive process count %d", s.n)
	}
	for i, e := range s.events {
		switch e.Kind {
		case Stutter, Stall, CrashRecover, StaleRead, StaleScan:
		default:
			return fmt.Errorf("fault: event %d has unknown kind %d", i, int(e.Kind))
		}
		if e.Pid < 0 || e.Pid >= s.n {
			return fmt.Errorf("fault: event %d (%s) targets pid %d outside [0, %d)", i, e.Kind, e.Pid, s.n)
		}
		if e.Slot < 0 || e.Op < 0 || e.Arg < 0 {
			return fmt.Errorf("fault: event %d (%s) has a negative field (slot=%d op=%d arg=%d)",
				i, e.Kind, e.Slot, e.Op, e.Arg)
		}
		switch e.Kind {
		case Stutter, Stall:
			if e.Arg < 1 {
				return fmt.Errorf("fault: event %d (%s) needs a positive length, got %d", i, e.Kind, e.Arg)
			}
		case StaleScan:
			if e.Arg < 1 {
				return fmt.Errorf("fault: event %d (stale-scan) needs a positive depth, got %d", i, e.Arg)
			}
		}
	}
	return nil
}

// MarshalJSON serializes the schedule in the same schema-tagged form
// Encode uses, so a Schedule can be embedded in larger artifacts
// (Repro) directly.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	return json.Marshal(scheduleJSON{Schema: SchemaFault, N: s.n, Events: s.events})
}

// UnmarshalJSON parses the schema-tagged form, validating it.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	dec, err := Decode(data)
	if err != nil {
		return err
	}
	*s = *dec
	return nil
}

// Encode serializes the schedule; Decode(Encode(s)) equals s
// byte-for-byte once normalized.
func (s *Schedule) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(scheduleJSON{Schema: SchemaFault, N: s.n, Events: s.events}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Decode parses a serialized schedule, validating schema and events.
func Decode(data []byte) (*Schedule, error) {
	var raw scheduleJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("fault: parsing schedule: %w", err)
	}
	if raw.Schema != SchemaFault {
		return nil, fmt.Errorf("fault: schedule schema %q, want %q", raw.Schema, SchemaFault)
	}
	return NewSchedule(raw.N, raw.Events)
}

// Semantics selects the register-semantics axis of a Plan.
type Semantics uint8

const (
	// SemAtomic keeps every read linearizable (the paper's model).
	SemAtomic Semantics = iota + 1
	// SemRegular lets reads overlapping a write return the previous
	// value (depth-1 staleness) and scans observe depth-1-stale
	// components.
	SemRegular
	// SemSafe lets reads overlapping a write return any recorded stale
	// value or the null value, and scans observe deeper staleness.
	SemSafe
)

// String returns the axis name used in flags and tables.
func (s Semantics) String() string {
	switch s {
	case SemAtomic:
		return "atomic"
	case SemRegular:
		return "regular"
	case SemSafe:
		return "safe"
	default:
		return fmt.Sprintf("Semantics(%d)", int(s))
	}
}

// SemanticsByName parses a Semantics from its String form.
func SemanticsByName(name string) (Semantics, bool) {
	for _, s := range []Semantics{SemAtomic, SemRegular, SemSafe} {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// ProcFault selects the process-fault axis of a Plan.
type ProcFault uint8

const (
	// ProcNone injects no process faults.
	ProcNone ProcFault = iota + 1
	// ProcStutter injects Stutter events.
	ProcStutter
	// ProcStall injects Stall events.
	ProcStall
	// ProcCrashRecover injects CrashRecover events.
	ProcCrashRecover
)

// String returns the axis name used in flags and tables.
func (p ProcFault) String() string {
	switch p {
	case ProcNone:
		return "none"
	case ProcStutter:
		return "stutter"
	case ProcStall:
		return "stall"
	case ProcCrashRecover:
		return "crash-recovery"
	default:
		return fmt.Sprintf("ProcFault(%d)", int(p))
	}
}

// ProcFaultByName parses a ProcFault from its String form.
func ProcFaultByName(name string) (ProcFault, bool) {
	for _, p := range []ProcFault{ProcNone, ProcStutter, ProcStall, ProcCrashRecover} {
		if p.String() == name {
			return p, true
		}
	}
	return 0, false
}

// Plan generates a random fault schedule for one matrix cell,
// deterministic in Seed. The zero value of every knob picks a default
// sized for the repository's consensus trials.
type Plan struct {
	// N is the process count (required).
	N int
	// Seed drives every random choice.
	Seed uint64
	// Semantics is the register-semantics axis (default SemAtomic).
	Semantics Semantics
	// Proc is the process-fault axis (default ProcNone).
	Proc ProcFault
	// SlotHorizon bounds the slots at which process faults fire
	// (default 2048).
	SlotHorizon int64
	// OpHorizon bounds the per-process operation index at which
	// semantic faults fire (default 128).
	OpHorizon int64
	// ProcEvents is the number of process-fault events (default
	// max(1, N/2)).
	ProcEvents int
	// ReadEvents is the number of semantic fault events (default 2*N).
	ReadEvents int
	// MaxArg bounds stutter/stall lengths and safe-mode staleness
	// depths (default 8).
	MaxArg int64
}

func (p Plan) withDefaults() Plan {
	if p.Semantics == 0 {
		p.Semantics = SemAtomic
	}
	if p.Proc == 0 {
		p.Proc = ProcNone
	}
	if p.SlotHorizon <= 0 {
		p.SlotHorizon = 2048
	}
	if p.OpHorizon <= 0 {
		p.OpHorizon = 128
	}
	if p.ProcEvents <= 0 {
		p.ProcEvents = max(1, p.N/2)
	}
	if p.ReadEvents <= 0 {
		p.ReadEvents = 2 * p.N
	}
	if p.MaxArg <= 0 {
		p.MaxArg = 8
	}
	return p
}

// Generate materializes the plan into an explicit schedule. Both axes
// draw from disjoint forks of Seed, so changing one axis does not
// reshuffle the other's events.
func (p Plan) Generate() (*Schedule, error) {
	if p.N <= 0 {
		return nil, fmt.Errorf("fault: Plan.N must be positive, got %d", p.N)
	}
	p = p.withDefaults()
	var events []Event

	if p.Proc != ProcNone {
		rng := xrand.New(p.Seed).ForkNamed(0x9c0c)
		kind := map[ProcFault]Kind{ProcStutter: Stutter, ProcStall: Stall, ProcCrashRecover: CrashRecover}[p.Proc]
		for i := 0; i < p.ProcEvents; i++ {
			e := Event{
				Kind: kind,
				Pid:  rng.Intn(p.N),
				Slot: int64(rng.Uint64n(uint64(p.SlotHorizon))),
			}
			if kind != CrashRecover {
				e.Arg = 1 + int64(rng.Uint64n(uint64(p.MaxArg)))
			}
			events = append(events, e)
		}
	}

	if p.Semantics != SemAtomic {
		rng := xrand.New(p.Seed).ForkNamed(0x5afe)
		for i := 0; i < p.ReadEvents; i++ {
			e := Event{
				Pid: rng.Intn(p.N),
				Op:  int64(rng.Uint64n(uint64(p.OpHorizon))),
			}
			// One in four semantic events weakens a scan; the rest
			// weaken plain reads.
			if rng.Intn(4) == 0 {
				e.Kind = StaleScan
				e.Arg = 1
				if p.Semantics == SemSafe {
					e.Arg = 1 + int64(rng.Uint64n(uint64(p.MaxArg)))
				}
			} else {
				e.Kind = StaleRead
				e.Arg = 1
				if p.Semantics == SemSafe {
					// Depth 0 is the safe-register null result.
					e.Arg = int64(rng.Uint64n(uint64(p.MaxArg + 1)))
				}
			}
			events = append(events, e)
		}
	}

	return NewSchedule(p.N, events)
}
