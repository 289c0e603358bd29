package conciliator

import (
	"fmt"
	"math"

	"github.com/oblivious-consensus/conciliator/internal/persona"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/stats"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// This file compiles the conciliators to flat state machines for the
// sim.FlatMachine engine: per-process cursors and shared objects live in
// dense slices instead of heap objects and coroutine frames. The
// correctness contract is observable equivalence with the coroutine
// implementations, not code sharing — every machine here must consume
// the per-process RNG streams in exactly the order persona.New and the
// coroutine round loops do, and must charge exactly one modeled step per
// Step call with the same shared-memory semantics as internal/memory.
// The cross-engine identity tests and FuzzFlatVsCoroutine pin this.
//
// Each machine's Step is NextOp (the process's next operation, read off
// its cursor), Apply (that operation on the machine's own round
// objects) and Deliver (the result advances the cursor). The
// discrete-event simulator runs NextOp and Deliver at a process and
// applies the op at its memory server instead, so the round logic here
// is the only copy of it.

// FlatPersonae is the dense persona pool: the flat-engine image of
// persona.Persona values. Persona identity is the index (the coroutine
// engine uses pointer identity), handed out in draw order; all pre-drawn
// randomness lives in flattened per-round slices. Draw replicates
// persona.New's draw order exactly: coin first, then per-round
// priorities, then per-round write bits. No flat protocol reads the coin
// or the origin, so neither is stored.
type FlatPersonae struct {
	prioRounds int
	prioBound  uint64
	writeProbs []float64

	vals  []int64
	prios []uint64
	bits  []bool

	next int32 // the id the next Draw takes
}

// NewFlatPersonae returns an empty pool drawing personae with the given
// persona configuration.
func NewFlatPersonae(cfg persona.Config) *FlatPersonae {
	return &FlatPersonae{
		prioRounds: cfg.PriorityRounds,
		prioBound:  cfg.PriorityBound,
		writeProbs: cfg.WriteProbs,
	}
}

// ensureIDs grows the pool's backing arrays to hold ids [0, count).
// Growth is geometric, so steady-state reuse across trials does not
// allocate.
func (pp *FlatPersonae) ensureIDs(count int) {
	if count <= len(pp.vals) {
		return
	}
	c := len(pp.vals)
	if c == 0 {
		c = count
	}
	for c < count {
		c *= 2
	}
	pp.vals = grown(pp.vals, c)
	pp.prios = grown(pp.prios, c*pp.prioRounds)
	pp.bits = grown(pp.bits, c*len(pp.writeProbs))
}

// grown returns a copy of s with length n.
func grown[T any](s []T, n int) []T {
	t := make([]T, n)
	copy(t, s)
	return t
}

// Draw creates a persona with value val under the next unused id,
// drawing all randomness from rng in the same order persona.New does,
// and returns the id. A process that draws again (an amnesiac restart)
// therefore never overwrites a persona other processes adopted.
func (pp *FlatPersonae) Draw(val int64, rng *xrand.Rand) int32 {
	id := int(pp.next)
	pp.next++
	pp.ensureIDs(id + 1)
	pp.vals[id] = val
	rng.Bool() // the coin
	if pp.prioRounds > 0 {
		base := id * pp.prioRounds
		for i := 0; i < pp.prioRounds; i++ {
			if pp.prioBound > 0 {
				pp.prios[base+i] = 1 + rng.Uint64n(pp.prioBound)
			} else {
				pp.prios[base+i] = rng.Uint64()
			}
		}
	}
	if len(pp.writeProbs) > 0 {
		base := id * len(pp.writeProbs)
		for i, prob := range pp.writeProbs {
			pp.bits[base+i] = rng.Bernoulli(prob)
		}
	}
	return int32(id)
}

// Value returns persona id's input value.
func (pp *FlatPersonae) Value(id int32) int64 { return pp.vals[id] }

// Priority returns persona id's pre-drawn priority for round i.
func (pp *FlatPersonae) Priority(id int32, i int) uint64 {
	return pp.prios[int(id)*pp.prioRounds+i]
}

// WriteBit returns persona id's pre-drawn chooseWrite decision for
// round i.
func (pp *FlatPersonae) WriteBit(id int32, i int) bool {
	return pp.bits[int(id)*len(pp.writeProbs)+i]
}

// HalfSifterConfig returns the SifterConfig of the constant-p = 1/2
// sifter baseline for n processes ("sifter-half"): every round writes
// with probability 1/2. Survivors halve in expectation each round, so it
// takes ceil(log2 n) + ceil(log_{4/3}(8/epsilon)) rounds, Theta(log n),
// to drive the survivor bound through the same epsilon tail the tuned
// schedule reaches in ceil(log log n) rounds (compare SifterRounds).
func HalfSifterConfig(n int, epsilon float64) SifterConfig {
	if epsilon <= 0 || epsilon >= 1 {
		epsilon = 0.5
	}
	rounds := stats.CeilLog2(n) + stats.CeilLogBase(4.0/3.0, 8/epsilon)
	return SifterConfig{Epsilon: epsilon, Rounds: max(rounds, 1), Probs: []float64{0.5}}
}

// FlatSifter is Algorithm 2 compiled to a flat machine: one int32
// register cell per round holding a persona id (-1 empty), per-process
// cursors in dense slices. Single-phase (one Conciliate per process);
// consensus phase composition lives in internal/consensus.
//
// The ablation switches (SharePersonae=false, TrackSurvivors) are not
// ported; NewFlatSifter rejects configurations that ask for them.
type FlatSifter struct {
	rounds int
	pp     *FlatPersonae

	regs   []int32 // per round: persona id or -1
	pers   []int32 // per process: current persona id
	round  []int32 // per process: next round index
	inputs []int64
}

var _ sim.FlatMachine = (*FlatSifter)(nil)

// NewFlatSifter returns a flat Algorithm 2 machine for n processes,
// resolving rounds and write probabilities exactly as NewSifter does.
// Call Reset before each run.
func NewFlatSifter(n int, cfg SifterConfig) *FlatSifter {
	cfg = cfg.withDefaults()
	if !*cfg.SharePersonae || cfg.TrackSurvivors {
		panic("conciliator: FlatSifter supports only the default shared-personae configuration")
	}
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = SifterRounds(n, cfg.Epsilon)
	}
	if rounds < 1 {
		rounds = 1
	}
	probs := SifterProbs(n, rounds)
	if len(cfg.Probs) > 0 {
		for i := range probs {
			if i < len(cfg.Probs) {
				probs[i] = cfg.Probs[i]
			} else {
				probs[i] = cfg.Probs[len(cfg.Probs)-1]
			}
		}
	}
	m := &FlatSifter{
		rounds: rounds,
		pp:     NewFlatPersonae(persona.Config{WriteProbs: probs}),
		regs:   make([]int32, rounds),
		pers:   make([]int32, n),
		round:  make([]int32, n),
	}
	m.pp.ensureIDs(n)
	m.Reset(nil)
	return m
}

// Rounds returns the number of rounds R the machine executes.
func (m *FlatSifter) Rounds() int { return m.rounds }

// Reset prepares the machine for a fresh run with the given inputs
// (inputs[pid]; nil means input = pid). The slice is read during Init
// and not retained past the run.
func (m *FlatSifter) Reset(inputs []int64) {
	m.inputs = inputs
	for i := range m.regs {
		m.regs[i] = -1
	}
	m.pp.next = 0
}

// Init implements sim.FlatMachine: persona creation, the only pre-step
// randomness of the sifter body. Calling it again for the same process
// restarts that process at round 0 under a fresh persona.
func (m *FlatSifter) Init(pid int, rng *xrand.Rand) {
	m.pers[pid] = m.pp.Draw(flatInput(m.inputs, pid), rng)
	m.round[pid] = 0
}

// flatInput is process pid's conciliator input: inputs[pid], or pid when
// inputs is nil.
func flatInput(inputs []int64, pid int) int64 {
	if inputs != nil {
		return inputs[pid]
	}
	return int64(pid)
}

// Step implements sim.FlatMachine: one sifting round, exactly one
// register operation.
func (m *FlatSifter) Step(pid int, _ *xrand.Rand) bool {
	return m.Deliver(pid, m.Apply(m.NextOp(pid)))
}

// NextOp returns pid's operation in its current round: a write of its
// persona when the persona's pre-drawn bit for the round is set, a read
// otherwise.
func (m *FlatSifter) NextOp(pid int) sim.FlatOp {
	i := m.round[pid]
	if pers := m.pers[pid]; m.pp.WriteBit(pers, int(i)) {
		return sim.FlatOp{Kind: sim.OpWriteP, Obj: i, Arg: pers}
	}
	return sim.FlatOp{Kind: sim.OpReadP, Obj: i}
}

// Apply executes a NextOp operation on the machine's round registers.
func (m *FlatSifter) Apply(op sim.FlatOp) sim.FlatResult {
	if op.Kind == sim.OpWriteP {
		m.regs[op.Obj] = op.Arg
		return sim.FlatResult{}
	}
	r := m.regs[op.Obj]
	return sim.FlatResult{OK: r >= 0, Val: max(r, 0)}
}

// Deliver advances pid past its current round, adopting the persona a
// read returned. It returns true after the last round.
func (m *FlatSifter) Deliver(pid int, r sim.FlatResult) bool {
	if r.OK {
		m.pers[pid] = r.Val
	}
	i := m.round[pid] + 1
	m.round[pid] = i
	return int(i) >= m.rounds
}

// Value returns the conciliator output of a finished process.
func (m *FlatSifter) Value(pid int) int64 { return m.pp.Value(m.pers[pid]) }

// FlatPriorityMax is Algorithm 1's footnote-1 max-register variant
// compiled to a flat machine: per round one unit-cost max register held
// as a (key, persona id) pair, two operations per round (WriteMax, then
// ReadMax-and-adopt). Only the UseMaxRegisters configuration is ported;
// snapshot rounds, tree max registers, compact values, and the ablation
// switches are rejected.
type FlatPriorityMax struct {
	rounds int
	pp     *FlatPersonae

	maxKey  []uint64 // per round: incumbent key
	maxPers []int32  // per round: incumbent persona id, -1 empty
	pers    []int32  // per process: current persona id
	pos     []int32  // per process: operation index (2 per round)
	inputs  []int64
}

var _ sim.FlatMachine = (*FlatPriorityMax)(nil)

// NewFlatPriorityMax returns a flat footnote-1 Algorithm 1 machine for n
// processes, resolving rounds and the priority bound exactly as
// NewPriority does for UseMaxRegisters configurations. Call Reset before
// each run.
func NewFlatPriorityMax(n int, cfg PriorityConfig) *FlatPriorityMax {
	cfg = cfg.withDefaults()
	if !cfg.UseMaxRegisters || cfg.TreeMax || cfg.UseAfekSnapshot || cfg.CompactValues ||
		cfg.InconsistentTies || !*cfg.SharePersonae || cfg.TrackSurvivors {
		panic(fmt.Sprintf("conciliator: FlatPriorityMax supports only the plain max-register configuration, got %+v", cfg))
	}
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = PriorityRounds(n, cfg.Epsilon)
	}
	var bound uint64
	switch {
	case cfg.PriorityBound != 0:
		bound = cfg.PriorityBound
	case cfg.PaperPriorityRange:
		bound = uint64(math.Ceil(float64(rounds) * float64(n) * float64(n) / cfg.Epsilon))
	}
	m := &FlatPriorityMax{
		rounds:  rounds,
		pp:      NewFlatPersonae(persona.Config{PriorityRounds: rounds, PriorityBound: bound}),
		maxKey:  make([]uint64, rounds),
		maxPers: make([]int32, rounds),
		pers:    make([]int32, n),
		pos:     make([]int32, n),
	}
	m.pp.ensureIDs(n)
	m.Reset(nil)
	return m
}

// Rounds returns the number of rounds R the machine executes.
func (m *FlatPriorityMax) Rounds() int { return m.rounds }

// Reset prepares the machine for a fresh run with the given inputs
// (nil means input = pid).
func (m *FlatPriorityMax) Reset(inputs []int64) {
	m.inputs = inputs
	for i := 0; i < m.rounds; i++ {
		m.maxKey[i] = 0
		m.maxPers[i] = -1
	}
	m.pp.next = 0
}

// Init implements sim.FlatMachine. Calling it again for the same process
// restarts that process at round 0 under a fresh persona.
func (m *FlatPriorityMax) Init(pid int, rng *xrand.Rand) {
	m.pers[pid] = m.pp.Draw(flatInput(m.inputs, pid), rng)
	m.pos[pid] = 0
}

// Step implements sim.FlatMachine: alternating WriteMax / ReadMax-adopt
// operations, two per round.
func (m *FlatPriorityMax) Step(pid int, _ *xrand.Rand) bool {
	return m.Deliver(pid, m.Apply(m.NextOp(pid)))
}

// NextOp returns pid's next operation: the WriteMax of its persona under
// the round's priority, then the round's ReadMax.
func (m *FlatPriorityMax) NextOp(pid int) sim.FlatOp {
	pos := m.pos[pid]
	i := pos / 2
	if pos&1 == 0 {
		pers := m.pers[pid]
		return sim.FlatOp{Kind: sim.OpWriteMax, Obj: i, Arg: pers, Key: m.pp.Priority(pers, int(i))}
	}
	return sim.FlatOp{Kind: sim.OpReadMax, Obj: i}
}

// Apply executes a NextOp operation on the machine's round max
// registers: a strictly greater key replaces the incumbent, ties keep it.
func (m *FlatPriorityMax) Apply(op sim.FlatOp) sim.FlatResult {
	i := op.Obj
	if op.Kind == sim.OpWriteMax {
		if m.maxPers[i] < 0 || op.Key > m.maxKey[i] {
			m.maxKey[i], m.maxPers[i] = op.Key, op.Arg
		}
		return sim.FlatResult{}
	}
	p := m.maxPers[i]
	return sim.FlatResult{OK: p >= 0, Val: max(p, 0), Key: m.maxKey[i]}
}

// Deliver advances pid past its current operation, adopting the persona
// a ReadMax returned. The process's own WriteMax precedes the read, so
// the register is empty only if something wiped it; the process then
// keeps its persona. It returns true after the last round's read.
func (m *FlatPriorityMax) Deliver(pid int, r sim.FlatResult) bool {
	if r.OK {
		m.pers[pid] = r.Val
	}
	pos := m.pos[pid] + 1
	m.pos[pid] = pos
	return int(pos) >= 2*m.rounds
}

// Value returns the conciliator output of a finished process.
func (m *FlatPriorityMax) Value(pid int) int64 { return m.pp.Value(m.pers[pid]) }
