package consensus

import (
	"fmt"

	"github.com/oblivious-consensus/conciliator/internal/adoptcommit"
	"github.com/oblivious-consensus/conciliator/internal/conciliator"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// This file compiles the full conciliator + adopt-commit phase loop to a
// sim.FlatMachine: per-process phase cursors live in dense slices, each
// phase's conciliator is a flat machine from internal/conciliator, and
// each phase's adopt-commit object is a flat core from
// internal/adoptcommit. The observable-equivalence contract with the
// coroutine Protocol (EquivalentProtocol builds the matching one) is
// pinned by the cross-engine identity tests and FuzzFlatVsCoroutine:
// same slots, same per-process step counts, same decisions under every
// schedule and algorithm seed.
//
// Step is NextOp, an apply on the machine's own objects, and Deliver (see
// sim.FlatMachine). The discrete-event simulator (internal/des) drives
// the same machine through Init, NextOp and Deliver with its memory
// server applying the ops, so this file is the one definition of the
// phase loop both engines run.

// Conciliator and adopt-commit selectors for FlatConfig.
const (
	ConcSifter      = "sifter"       // Algorithm 2 (register model)
	ConcSifterHalf  = "sifter-half"  // constant-p = 1/2 sifter baseline
	ConcPriorityMax = "priority-max" // Algorithm 1, footnote-1 max registers

	ACRegister = "register" // binary register adopt-commit (values {0, 1})
	ACSnapshot = "snapshot" // snapshot adopt-commit (any int64 values)
)

// FlatConfig selects the protocol assembled by NewFlat.
type FlatConfig struct {
	// Conciliator is one of ConcSifter, ConcSifterHalf, ConcPriorityMax.
	Conciliator string
	// AC is one of ACRegister, ACSnapshot. ACRegister restricts inputs
	// to {0, 1}.
	AC string
	// Epsilon is the per-phase conciliator failure bound (0 = 0.5, the
	// value the coroutine factories use).
	Epsilon float64
	// MaxPhases bounds the phase loop (0 = default 64), with the same
	// validity valve as the coroutine Protocol.
	MaxPhases int
	// PaperPriorityRange draws priority-max priorities from the paper's
	// bounded range {1..ceil(R n^2/Epsilon)} instead of full-width
	// uint64 (see conciliator.PriorityConfig).
	PaperPriorityRange bool
}

func (cfg FlatConfig) withDefaults() FlatConfig {
	if cfg.Conciliator == "" {
		cfg.Conciliator = ConcSifter
	}
	if cfg.AC == "" {
		cfg.AC = ACRegister
	}
	if cfg.Epsilon <= 0 || cfg.Epsilon >= 1 {
		cfg.Epsilon = 0.5
	}
	if cfg.MaxPhases <= 0 {
		cfg.MaxPhases = defaultMaxPhases
	}
	return cfg
}

// sifterConfig resolves the conciliator.SifterConfig the coroutine
// factories would pass to NewSifter for this FlatConfig.
func (cfg FlatConfig) sifterConfig(n int) conciliator.SifterConfig {
	if cfg.Conciliator == ConcSifterHalf {
		return conciliator.HalfSifterConfig(n, cfg.Epsilon)
	}
	return conciliator.SifterConfig{Epsilon: cfg.Epsilon}
}

func (cfg FlatConfig) priorityConfig() conciliator.PriorityConfig {
	return conciliator.PriorityConfig{Epsilon: cfg.Epsilon, UseMaxRegisters: true, PaperPriorityRange: cfg.PaperPriorityRange}
}

const (
	concKindSifter = iota
	concKindPriorityMax
)

// FlatConsensus is the phase loop of Protocol.ProposeWithPhases compiled
// to a flat machine. Per-phase objects are created lazily the first time
// any process enters the phase (bookkeeping, no modeled steps, exactly
// like Protocol.phase) and are retained across Reset, so steady-state
// Monte Carlo trials run without allocation.
type FlatConsensus struct {
	n        int
	cfg      FlatConfig
	concKind int8
	binary   bool
	rounds   int32 // conciliator rounds per phase

	// Per-process cursors.
	pref    []int64
	phase   []int32
	inConc  []bool
	acCur   []adoptcommit.FlatACCursor
	acVal   []int64
	decided []bool
	phases  []int32 // phases used by a decided process

	// Per-phase objects, indexed by phase, grown lazily.
	sifters []*conciliator.FlatSifter
	prios   []*conciliator.FlatPriorityMax
	regACs  []adoptcommit.FlatBinaryAC
	snapACs []*adoptcommit.FlatSnapshotAC

	inputs []int64
}

var _ sim.FlatMachine = (*FlatConsensus)(nil)

// NewFlat returns a flat consensus machine for n processes. Call Reset
// before each run.
func NewFlat(n int, cfg FlatConfig) (*FlatConsensus, error) {
	cfg = cfg.withDefaults()
	m := &FlatConsensus{
		n:       n,
		cfg:     cfg,
		pref:    make([]int64, n),
		phase:   make([]int32, n),
		inConc:  make([]bool, n),
		acCur:   make([]adoptcommit.FlatACCursor, n),
		acVal:   make([]int64, n),
		decided: make([]bool, n),
		phases:  make([]int32, n),
	}
	switch cfg.Conciliator {
	case ConcSifter, ConcSifterHalf:
		m.concKind = concKindSifter
	case ConcPriorityMax:
		m.concKind = concKindPriorityMax
	default:
		return nil, fmt.Errorf("consensus: unknown flat conciliator %q", cfg.Conciliator)
	}
	switch cfg.AC {
	case ACRegister:
		m.binary = true
	case ACSnapshot:
	default:
		return nil, fmt.Errorf("consensus: unknown flat adopt-commit %q", cfg.AC)
	}
	m.Reset(nil)
	if m.concKind == concKindSifter {
		m.rounds = int32(m.sifters[0].Rounds())
	} else {
		m.rounds = int32(m.prios[0].Rounds())
	}
	return m, nil
}

// EquivalentProtocol builds the coroutine Protocol that NewFlat(n, cfg)
// reproduces byte-identically: the same factories the Corollary
// constructors use, specialised to int values.
func EquivalentProtocol(n int, cfg FlatConfig) (*Protocol[int], error) {
	cfg = cfg.withDefaults()
	var newConc func(int) conciliator.Interface[int]
	switch cfg.Conciliator {
	case ConcSifter, ConcSifterHalf:
		scfg := cfg.sifterConfig(n)
		newConc = func(int) conciliator.Interface[int] {
			return conciliator.NewSifter[int](n, scfg)
		}
	case ConcPriorityMax:
		pcfg := cfg.priorityConfig()
		newConc = func(int) conciliator.Interface[int] {
			return conciliator.NewPriority[int](n, pcfg)
		}
	default:
		return nil, fmt.Errorf("consensus: unknown flat conciliator %q", cfg.Conciliator)
	}
	var newAC func(int) adoptcommit.Object[int]
	switch cfg.AC {
	case ACRegister:
		newAC = func(int) adoptcommit.Object[int] { return adoptcommit.NewBinaryAC() }
	case ACSnapshot:
		newAC = func(int) adoptcommit.Object[int] { return adoptcommit.NewSnapshotAC[int](n) }
	default:
		return nil, fmt.Errorf("consensus: unknown flat adopt-commit %q", cfg.AC)
	}
	return New(n, Config[int]{
		NewConciliator: newConc,
		NewAdoptCommit: newAC,
		MaxPhases:      cfg.MaxPhases,
	}), nil
}

// Reset prepares the machine for a fresh run with the given inputs
// (inputs[pid]; nil means input = pid mod 2). The slice is read during
// Init and not retained past the run. With AC == ACRegister, inputs must
// lie in {0, 1}.
func (m *FlatConsensus) Reset(inputs []int64) {
	if inputs != nil && m.binary {
		for pid, v := range inputs {
			if v != 0 && v != 1 {
				panic(fmt.Sprintf("consensus: register adopt-commit requires binary inputs, got inputs[%d] = %d", pid, v))
			}
		}
	}
	m.inputs = inputs
	for _, s := range m.sifters {
		s.Reset(m.pref)
	}
	for _, p := range m.prios {
		p.Reset(m.pref)
	}
	for i := range m.regACs {
		m.regACs[i].Reset()
	}
	for _, ac := range m.snapACs {
		ac.Reset()
	}
	m.enterPhase(0)
}

// enterPhase makes sure phase ph's conciliator and adopt-commit objects
// exist. Lazy creation mirrors Protocol.phase: bookkeeping only, no
// modeled steps.
func (m *FlatConsensus) enterPhase(ph int) {
	switch m.concKind {
	case concKindSifter:
		for len(m.sifters) <= ph {
			s := conciliator.NewFlatSifter(m.n, m.cfg.sifterConfig(m.n))
			s.Reset(m.pref)
			m.sifters = append(m.sifters, s)
		}
	case concKindPriorityMax:
		for len(m.prios) <= ph {
			p := conciliator.NewFlatPriorityMax(m.n, m.cfg.priorityConfig())
			p.Reset(m.pref)
			m.prios = append(m.prios, p)
		}
	}
	if m.binary {
		for len(m.regACs) <= ph {
			m.regACs = append(m.regACs, adoptcommit.FlatBinaryAC{})
		}
	} else {
		for len(m.snapACs) <= ph {
			m.snapACs = append(m.snapACs, adoptcommit.NewFlatSnapshotAC(m.n))
		}
	}
}

// Init implements sim.FlatMachine: put process pid at the start of
// phase 0 with its input as preference and draw the phase-0 persona, the
// only pre-first-step randomness of the coroutine body.
//
// Calling Init again mid-run is an amnesiac crash-recovery of pid: the
// process loses its local state and re-enters phase 0 with its original
// input and a persona drawn from rng. Shared objects keep what it wrote,
// and the new persona takes a fresh persona id, so personae other
// processes adopted from the old incarnation keep their values and
// randomness.
func (m *FlatConsensus) Init(pid int, rng *xrand.Rand) {
	v := int64(pid % 2)
	if m.inputs != nil {
		v = m.inputs[pid]
	}
	m.pref[pid] = v
	m.phase[pid], m.inConc[pid], m.decided[pid], m.phases[pid] = 0, true, false, 0
	m.concInit(0, pid, rng)
}

// concInit draws process pid's phase-ph persona, reading pref[pid] as
// the conciliator input — the coroutine engine does this at the top of
// Conciliate, as local computation before the phase's first step.
func (m *FlatConsensus) concInit(ph, pid int, rng *xrand.Rand) {
	switch m.concKind {
	case concKindSifter:
		m.sifters[ph].Init(pid, rng)
	case concKindPriorityMax:
		m.prios[ph].Init(pid, rng)
	}
}

// Progress reports what Deliver did to a process.
type Progress uint8

const (
	// Running: the process is inside a conciliator or adopt-commit
	// object; NextOp is its next operation there.
	Running Progress = iota
	// Proposing: the phase's conciliator finished, and the process now
	// proposes Proposal(pid) to the phase's adopt-commit.
	Proposing
	// Adopted: adopt-commit adopted Output(pid), and the process entered
	// the next phase with it.
	Adopted
	// Committed: adopt-commit committed; the process decided Output(pid).
	Committed
	// OutOfPhases: adopt-commit adopted in the last phase MaxPhases
	// allows. The machine decides Output(pid) by the validity valve.
	OutOfPhases
)

// Step implements sim.FlatMachine: exactly one shared-memory operation
// — the current phase object's NextOp, applied to that object, then its
// Deliver. It dispatches once and calls the object's halves directly
// rather than through NextOp and Deliver below, which would route the
// op by phase twice more per step.
func (m *FlatConsensus) Step(pid int, rng *xrand.Rand) bool {
	ph := m.phase[pid]
	if m.inConc[pid] {
		var fin bool
		if m.concKind == concKindSifter {
			s := m.sifters[ph]
			fin = s.Deliver(pid, s.Apply(s.NextOp(pid)))
		} else {
			p := m.prios[ph]
			fin = p.Deliver(pid, p.Apply(p.NextOp(pid)))
		}
		if fin {
			m.propose(pid)
		}
		return false
	}
	var done, commit bool
	var out int64
	cur, v := &m.acCur[pid], m.acVal[pid]
	if m.binary {
		a := &m.regACs[ph]
		done, commit, out = a.Deliver(cur, v, a.Apply(a.NextOp(cur, v)))
	} else {
		done, commit, out = m.snapACs[ph].Step(cur, pid, v)
	}
	return done && m.finishAC(pid, commit, out, rng) >= Committed
}

// NextOp returns process pid's next shared-memory operation, its object
// indexed across phases: round objects at phase*Rounds()+round,
// adopt-commit registers at phase*adoptcommit.FlatACRegs+register. It
// serves the sifter and priority-max conciliators and the ACRegister
// adopt-commit; the snapshot adopt-commit runs only inside Step.
func (m *FlatConsensus) NextOp(pid int) sim.FlatOp {
	ph := m.phase[pid]
	var op sim.FlatOp
	switch {
	case !m.inConc[pid]:
		op = m.regACs[ph].NextOp(&m.acCur[pid], m.acVal[pid])
		op.Obj += ph * adoptcommit.FlatACRegs
		return op
	case m.concKind == concKindSifter:
		op = m.sifters[ph].NextOp(pid)
	default:
		op = m.prios[ph].NextOp(pid)
	}
	op.Obj += ph * m.rounds
	return op
}

// Deliver advances process pid by the result of its NextOp operation.
// Entering the next phase draws that phase's persona from rng.
func (m *FlatConsensus) Deliver(pid int, r sim.FlatResult, rng *xrand.Rand) Progress {
	ph := m.phase[pid]
	if !m.inConc[pid] {
		done, commit, out := m.regACs[ph].Deliver(&m.acCur[pid], m.acVal[pid], r)
		if !done {
			return Running
		}
		return m.finishAC(pid, commit, out, rng)
	}
	var fin bool
	if m.concKind == concKindSifter {
		fin = m.sifters[ph].Deliver(pid, r)
	} else {
		fin = m.prios[ph].Deliver(pid, r)
	}
	if !fin {
		return Running
	}
	m.propose(pid)
	return Proposing
}

// propose moves process pid from its finished conciliator to the
// phase's adopt-commit, proposing the conciliator's output. The
// conciliator's last operation is never the body's last: the
// adopt-commit Propose always follows.
func (m *FlatConsensus) propose(pid int) {
	ph := m.phase[pid]
	if m.concKind == concKindSifter {
		m.acVal[pid] = m.sifters[ph].Value(pid)
	} else {
		m.acVal[pid] = m.prios[ph].Value(pid)
	}
	m.inConc[pid] = false
	m.acCur[pid] = adoptcommit.FlatACCursor{}
}

// finishAC completes process pid's adopt-commit Propose in its current
// phase: commit decides, adopt carries out into the next phase.
func (m *FlatConsensus) finishAC(pid int, commit bool, out int64, rng *xrand.Rand) Progress {
	ph := int(m.phase[pid])
	m.pref[pid] = out
	if commit {
		m.decided[pid] = true
		m.phases[pid] = int32(ph + 1)
		return Committed
	}
	m.phase[pid] = int32(ph + 1)
	if ph+1 >= m.cfg.MaxPhases {
		// Safety valve, exactly like ProposeWithPhases: return the
		// current preference, which is still some process's input.
		m.decided[pid] = true
		m.phases[pid] = int32(m.cfg.MaxPhases)
		return OutOfPhases
	}
	m.inConc[pid] = true
	m.enterPhase(ph + 1)
	// Entering the next conciliator draws its persona now — local
	// computation between this operation and the process's next one,
	// at the same position in the per-process stream as the coroutine.
	m.concInit(ph+1, pid, rng)
	return Adopted
}

// Output returns the decision of a finished process.
func (m *FlatConsensus) Output(pid int) int64 { return m.pref[pid] }

// Decided reports whether process pid reached a decision (true for every
// finished process).
func (m *FlatConsensus) Decided(pid int) bool { return m.decided[pid] }

// Phases returns how many phases a decided process executed.
func (m *FlatConsensus) Phases(pid int) int { return int(m.phases[pid]) }

// Phase returns the index of process pid's current phase. After
// OutOfPhases it is MaxPhases.
func (m *FlatConsensus) Phase(pid int) int { return int(m.phase[pid]) }

// Proposal returns what process pid proposes to its current phase's
// adopt-commit (meaningful from Proposing on).
func (m *FlatConsensus) Proposal(pid int) int64 { return m.acVal[pid] }

// Rounds returns the conciliator's round count per phase.
func (m *FlatConsensus) Rounds() int { return int(m.rounds) }
