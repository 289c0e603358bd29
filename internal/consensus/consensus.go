// Package consensus composes conciliators with adopt-commit objects into
// full randomized consensus, following Section 1.2 of the paper (and [5]):
// an alternating sequence of conciliators and adopt-commit objects, where
// a process decides as soon as an adopt-commit returns commit.
//
// Agreement is absolute (not probabilistic): once some process commits v
// at phase i, coherence of that phase's adopt-commit hands v to every
// process that passes phase i, conciliator validity preserves it, and
// convergence commits it for everyone at phase i+1 at the latest.
// Termination is probabilistic with expected O(1) phases: each phase's
// conciliator produces agreement with probability at least delta
// independent of the oblivious adversary's schedule, so the number of
// phases is dominated by a geometric distribution.
//
// The three constructions of the paper are provided as factories:
//
//   - NewSnapshot: Algorithm 1 + snapshot adopt-commit (Corollary 1,
//     O(log* n) expected individual steps, unit-cost snapshot model).
//   - NewRegister: Algorithm 2 + register adopt-commit (Corollary 2,
//     O(log log n + AC(m)) expected individual steps, register model).
//   - NewLinear: Algorithm 3 + register adopt-commit (Corollary 3, same
//     individual steps with O(n) expected total steps).
//   - NewCILBaseline: pre-paper baseline, CIL conciliator + register
//     adopt-commit (Theta(n) expected individual steps).
package consensus

import (
	"sync"
	"sync/atomic"

	"github.com/oblivious-consensus/conciliator/internal/adoptcommit"
	"github.com/oblivious-consensus/conciliator/internal/conciliator"
	"github.com/oblivious-consensus/conciliator/internal/sim"
)

// defaultMaxPhases is the safety valve on the phase loop. Each phase
// fails to commit with probability at most 1/2 (conciliators are built
// with epsilon <= 1/2 and adopt-commit converges on agreement), so 64
// phases fail with probability about 2^-64.
const defaultMaxPhases = 64

// Config assembles a consensus protocol from per-phase object factories.
type Config[V comparable] struct {
	// NewConciliator builds the phase-i conciliator. Phases are created
	// lazily, at most once each.
	NewConciliator func(phase int) conciliator.Interface[V]

	// NewAdoptCommit builds the phase-i adopt-commit object.
	NewAdoptCommit func(phase int) adoptcommit.Object[V]

	// WrapAdoptCommit, when non-nil, wraps each phase's adopt-commit
	// object as it is created — e.g. adoptcommit.NewChecked, so safety
	// monitors observe every Propose without the protocol knowing.
	WrapAdoptCommit func(phase int, ac adoptcommit.Object[V]) adoptcommit.Object[V]

	// MaxPhases bounds the phase loop (0 = default 64). If the bound is
	// hit — probability about 2^-MaxPhases — the process returns its
	// current preference, preserving validity.
	MaxPhases int
}

// Protocol is a single-use consensus object for n processes: each process
// calls Propose exactly once.
type Protocol[V comparable] struct {
	n         int
	cfg       Config[V]
	maxPhases int

	mu     sync.Mutex
	phases []*phase[V]

	maxPhaseUsed atomic.Int64
	totalPhases  atomic.Int64
	proposers    atomic.Int64
}

type phase[V comparable] struct {
	conc conciliator.Interface[V]
	ac   adoptcommit.Object[V]
}

// New assembles a protocol from cfg.
func New[V comparable](n int, cfg Config[V]) *Protocol[V] {
	if cfg.NewConciliator == nil || cfg.NewAdoptCommit == nil {
		panic("consensus: Config requires both factories")
	}
	maxPhases := cfg.MaxPhases
	if maxPhases <= 0 {
		maxPhases = defaultMaxPhases
	}
	return &Protocol[V]{n: n, cfg: cfg, maxPhases: maxPhases}
}

// NewSnapshot returns the Corollary 1 protocol: Algorithm 1 conciliators
// alternating with snapshot adopt-commit objects, O(log* n) expected
// individual steps in the unit-cost snapshot model, for any number of
// possible input values.
func NewSnapshot[V comparable](n int) *Protocol[V] {
	return New(n, Config[V]{
		NewConciliator: func(int) conciliator.Interface[V] {
			return conciliator.NewPriority[V](n, conciliator.PriorityConfig{Epsilon: 0.5})
		},
		NewAdoptCommit: func(int) adoptcommit.Object[V] {
			return adoptcommit.NewSnapshotAC[V](n)
		},
	})
}

// NewRegister returns the Corollary 2 protocol: Algorithm 2 conciliators
// alternating with register adopt-commit objects in the multi-writer
// register model.
func NewRegister[V comparable](n int) *Protocol[V] {
	return New(n, Config[V]{
		NewConciliator: func(int) conciliator.Interface[V] {
			return conciliator.NewSifter[V](n, conciliator.SifterConfig{Epsilon: 0.5})
		},
		NewAdoptCommit: func(int) adoptcommit.Object[V] {
			return adoptcommit.NewHashAC[V]()
		},
	})
}

// NewLinear returns the Corollary 3 protocol: Algorithm 3 conciliators
// (CIL shell with embedded sifter) alternating with register adopt-commit
// objects, keeping O(log log n + AC) individual steps while reducing
// expected total steps to O(n).
func NewLinear[V comparable](n int) *Protocol[V] {
	return New(n, Config[V]{
		NewConciliator: func(int) conciliator.Interface[V] {
			return conciliator.NewEmbedded[V](n, conciliator.EmbeddedConfig{})
		},
		NewAdoptCommit: func(int) adoptcommit.Object[V] {
			return adoptcommit.NewHashAC[V]()
		},
	})
}

// NewRegisterEncoded is NewRegister with a caller-supplied value encoder
// for the adopt-commit conflict detectors. When the value universe is
// small and enumerable (m values in enc.Bits = ceil(log2 m) bits), this
// drops the adopt-commit cost from the 64-bit hash default (131 steps)
// to 2*enc.Bits + 3 — the m-dependence of Corollary 2.
func NewRegisterEncoded[V comparable](n int, enc adoptcommit.Encoder[V]) *Protocol[V] {
	return New(n, Config[V]{
		NewConciliator: func(int) conciliator.Interface[V] {
			return conciliator.NewSifter[V](n, conciliator.SifterConfig{Epsilon: 0.5})
		},
		NewAdoptCommit: func(int) adoptcommit.Object[V] {
			return adoptcommit.NewRegisterAC(adoptcommit.NewDigitCD(enc))
		},
	})
}

// NewCILBaseline returns the pre-paper baseline: plain Chor–Israeli–Li
// conciliators alternating with register adopt-commit objects. Expected
// individual steps are Theta(n).
func NewCILBaseline[V comparable](n int) *Protocol[V] {
	return New(n, Config[V]{
		NewConciliator: func(int) conciliator.Interface[V] {
			return conciliator.NewCIL[V](n, conciliator.CILConfig{})
		},
		NewAdoptCommit: func(int) adoptcommit.Object[V] {
			return adoptcommit.NewHashAC[V]()
		},
	})
}

// Propose runs consensus for process p with the given input and returns
// the decided value.
func (c *Protocol[V]) Propose(p *sim.Proc, input V) V {
	v, _ := c.ProposeWithPhases(p, input)
	return v
}

// ProposeWithPhases additionally reports how many phases the process
// executed before deciding.
func (c *Protocol[V]) ProposeWithPhases(p *sim.Proc, input V) (V, int) {
	pref := input
	for i := 0; i < c.maxPhases; i++ {
		ph := c.phase(i)
		v := ph.conc.Conciliate(p, pref)
		dec, w := ph.ac.Propose(p, p.ID(), v)
		if dec == adoptcommit.Commit {
			c.recordDecision(i + 1)
			return w, i + 1
		}
		pref = w
	}
	// Safety valve (probability about 2^-maxPhases): return the current
	// preference, which is still some process's input.
	c.recordDecision(c.maxPhases)
	return pref, c.maxPhases
}

func (c *Protocol[V]) recordDecision(phases int) {
	c.proposers.Add(1)
	c.totalPhases.Add(int64(phases))
	for {
		cur := c.maxPhaseUsed.Load()
		if int64(phases) <= cur || c.maxPhaseUsed.CompareAndSwap(cur, int64(phases)) {
			return
		}
	}
}

// MaxPhases returns the largest number of phases any decided process
// used.
func (c *Protocol[V]) MaxPhases() int { return int(c.maxPhaseUsed.Load()) }

// MeanPhases returns the average phases per decided process.
func (c *Protocol[V]) MeanPhases() float64 {
	n := c.proposers.Load()
	if n == 0 {
		return 0
	}
	return float64(c.totalPhases.Load()) / float64(n)
}

// resetter is a phase object that can return to its initial state in
// place, reporting whether it could.
type resetter interface{ Reset() bool }

// Reset returns the protocol to its unused state so a fresh set of
// processes can decide with it, as if New had just built it. The phase
// counters are zeroed; each built phase whose conciliator and
// adopt-commit both reset in place is kept, and the first phase that
// cannot be reset is dropped together with every later phase, to be
// rebuilt lazily from the factories. No Propose may be in flight, and
// later Proposes must be ordered after Reset returns (see
// memory.Register.Reset).
func (c *Protocol[V]) Reset() {
	c.maxPhaseUsed.Store(0)
	c.totalPhases.Store(0)
	c.proposers.Store(0)
	for i, ph := range c.phases {
		if !resetPhase(ph) {
			clear(c.phases[i:])
			c.phases = c.phases[:i]
			return
		}
	}
}

func resetPhase[V comparable](ph *phase[V]) bool {
	conc, ok := ph.conc.(resetter)
	if !ok {
		return false
	}
	ac, ok := ph.ac.(resetter)
	if !ok {
		return false
	}
	return conc.Reset() && ac.Reset()
}

// phase returns the phase-i objects, creating them on first use. Lazy
// creation is bookkeeping, not a modeled shared-memory operation, so it
// takes no steps; the mutex makes it safe in concurrent mode.
func (c *Protocol[V]) phase(i int) *phase[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.phases) <= i {
		k := len(c.phases)
		ac := c.cfg.NewAdoptCommit(k)
		if c.cfg.WrapAdoptCommit != nil {
			ac = c.cfg.WrapAdoptCommit(k, ac)
		}
		c.phases = append(c.phases, &phase[V]{
			conc: c.cfg.NewConciliator(k),
			ac:   ac,
		})
	}
	return c.phases[i]
}
