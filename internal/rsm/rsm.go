// Package rsm builds the classic downstream application of consensus — a
// replicated state machine — on top of this repository's randomized
// consensus protocols. n replicas receive different client commands; one
// consensus instance per log slot forces every replica to append the same
// command in the same order, so any deterministic state machine replayed
// over the log reaches the same state on every replica.
//
// The package exists both as a usable library layer (the replicatedlog
// example is a thin wrapper over it) and as an end-to-end integration
// surface for the protocol stack: its tests check log identity and state
// convergence across execution modes, schedules, and crash patterns.
package rsm

import (
	"fmt"
	"sync"

	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/sim"
)

// Log is a replicated log for n replicas: slot s is decided by one
// single-use consensus instance, created lazily and shared by all
// replicas. A Log is safe for concurrent use by its n replicas.
//
// Each instance has a lifecycle: built (or recycled) on the first
// Propose into its slot, decided, and — once the caller has consumed the
// slot and calls Compact — forgotten. A forgotten instance no proposer
// is still inside is Reset and kept on a free list for a later slot, so
// a log that is compacted as it is applied holds only its live window
// of instances and stops allocating new ones.
type Log[V comparable] struct {
	n  int
	mk func(n int) *consensus.Protocol[V]

	// slots is sparse: a consensus instance exists only for slots some
	// replica actually proposed into. A dense slice here would let a
	// single Propose(p, 1_000_000, v) allocate a million protocols for
	// the untouched gap.
	mu    sync.Mutex
	slots map[int]*slotState[V]
	// base is the compaction watermark: every slot below it is
	// forgotten and may no longer be proposed into.
	base int
	// free holds reset instances ready for reuse.
	free []*slotState[V]
}

// slotState is one slot's consensus instance plus the number of
// proposers currently inside it (guarded by Log.mu).
type slotState[V comparable] struct {
	c        *consensus.Protocol[V]
	inflight int
}

// NewLog returns a replicated log whose slots are decided by protocols
// built with mk (e.g. consensus.NewRegister[V]).
func NewLog[V comparable](n int, mk func(n int) *consensus.Protocol[V]) *Log[V] {
	if n < 1 {
		panic("rsm: need at least one replica")
	}
	if mk == nil {
		panic("rsm: nil consensus factory")
	}
	return &Log[V]{n: n, mk: mk, slots: make(map[int]*slotState[V])}
}

// Replicas returns the number of replicas n.
func (l *Log[V]) Replicas() int { return l.n }

// Propose runs consensus for slot with the given proposal on behalf of
// process p, returning the slot's decided command. Each replica must
// call Propose at most once per slot (the underlying consensus objects
// are single-use per process). Proposing into a compacted slot panics.
func (l *Log[V]) Propose(p *sim.Proc, slot int, v V) V {
	st := l.slotProtocol(slot)
	defer l.leave(st)
	return st.c.Propose(p, v)
}

// Slots returns how many slots currently hold a consensus instance:
// slots actually proposed into and not yet compacted (gaps left by
// sparse proposals don't count).
func (l *Log[V]) Slots() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.slots)
}

// Compact forgets every slot below below; proposing into one of them
// afterwards panics. Call it once the decided values of those slots have
// been consumed. Instances no proposer is inside are reset and recycled
// for later slots; an instance a straggling proposer is still inside is
// left to the garbage collector instead, since resetting it would pull
// the state out from under that proposer.
func (l *Log[V]) Compact(below int) {
	l.mu.Lock()
	if below <= l.base {
		l.mu.Unlock()
		return
	}
	l.base = below
	var idle []*slotState[V]
	for s, st := range l.slots {
		if s >= below {
			continue
		}
		delete(l.slots, s)
		if st.inflight == 0 {
			idle = append(idle, st)
		}
	}
	l.mu.Unlock()
	if len(idle) == 0 {
		return
	}
	// No proposer can reach an idle instance any more, so the reset
	// runs outside the lock with plain stores; handing the instances
	// over under the lock orders it before their next use.
	for _, st := range idle {
		st.c.Reset()
	}
	l.mu.Lock()
	l.free = append(l.free, idle...)
	l.mu.Unlock()
}

// slotProtocol returns slot's instance, building or recycling it on first
// use, and counts the caller as a proposer inside it until leave.
func (l *Log[V]) slotProtocol(slot int) *slotState[V] {
	if slot < 0 {
		panic(fmt.Sprintf("rsm: negative slot %d", slot))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if slot < l.base {
		panic(fmt.Sprintf("rsm: propose into slot %d, which was compacted (the log keeps slots from %d on)", slot, l.base))
	}
	st, ok := l.slots[slot]
	if !ok {
		if k := len(l.free); k > 0 {
			st = l.free[k-1]
			l.free[k-1] = nil
			l.free = l.free[:k-1]
		} else {
			st = &slotState[V]{c: l.mk(l.n)}
		}
		l.slots[slot] = st
	}
	st.inflight++
	return st
}

func (l *Log[V]) leave(st *slotState[V]) {
	l.mu.Lock()
	st.inflight--
	l.mu.Unlock()
}

// StateMachine is a deterministic state machine replayed over the log.
// Implementations need not be safe for concurrent use: each replica owns
// its instance.
type StateMachine[V comparable] interface {
	// Apply executes one decided command.
	Apply(cmd V)
	// Fingerprint returns a comparable digest of the current state, used
	// to verify replica convergence.
	Fingerprint() string
}

// Replica drives one replica: it proposes its own pending commands slot
// by slot, appends whatever each slot decides, and applies the decided
// commands to its state machine.
type Replica[V comparable] struct {
	id  int
	log *Log[V]
	sm  StateMachine[V]

	applied []V
}

// NewReplica returns replica id over the shared log, applying decided
// commands to sm (which may be nil if only the log matters).
func NewReplica[V comparable](id int, log *Log[V], sm StateMachine[V]) *Replica[V] {
	if id < 0 || id >= log.Replicas() {
		panic(fmt.Sprintf("rsm: replica id %d out of range", id))
	}
	return &Replica[V]{id: id, log: log, sm: sm}
}

// ID returns the replica id.
func (r *Replica[V]) ID() int { return r.id }

// Run proposes each pending command into consecutive slots starting at
// startSlot, adopting the decided command for every slot. It returns the
// decided commands in order. Commands that lose their slot are NOT
// retried into later slots; callers wanting exactly-once submission
// re-propose losers themselves (see the package tests).
func (r *Replica[V]) Run(p *sim.Proc, startSlot int, pending []V) []V {
	decided := make([]V, 0, len(pending))
	for i, cmd := range pending {
		v := r.log.Propose(p, startSlot+i, cmd)
		r.append(v)
		decided = append(decided, v)
	}
	return decided
}

// RunRetry proposes the pending commands with re-submission: a command
// that loses its slot is retried in the next slot, until every pending
// command has been committed (in some slot) or maxSlots is exhausted.
// It returns the full decided log segment it observed.
//
// Commands are matched to decided values by equality, so commands must
// be distinct across replicas: if two replicas submit byte-identical
// commands, one winner satisfies both matches and the other replica's
// still-uncommitted command is silently dropped (it never retries).
// Callers whose payloads can collide must make commands distinct with an
// identity tag — see Tagged and RunRetryTagged.
func (r *Replica[V]) RunRetry(p *sim.Proc, startSlot int, pending []V, maxSlots int) []V {
	var decidedLog []V
	next := 0
	slot := startSlot
	for next < len(pending) && slot < startSlot+maxSlots {
		v := r.log.Propose(p, slot, pending[next])
		r.append(v)
		decidedLog = append(decidedLog, v)
		if v == pending[next] {
			next++
		}
		slot++
	}
	return decidedLog
}

// Applied returns the replica's decided-command log so far.
func (r *Replica[V]) Applied() []V {
	out := make([]V, len(r.applied))
	copy(out, r.applied)
	return out
}

// Fingerprint returns the state machine digest ("" without a state
// machine).
func (r *Replica[V]) Fingerprint() string {
	if r.sm == nil {
		return ""
	}
	return r.sm.Fingerprint()
}

func (r *Replica[V]) append(v V) {
	r.applied = append(r.applied, v)
	if r.sm != nil {
		r.sm.Apply(v)
	}
}
