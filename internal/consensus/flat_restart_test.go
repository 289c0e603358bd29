package consensus

import (
	"reflect"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/conciliator"
	"github.com/oblivious-consensus/conciliator/internal/persona"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// restartRig is a flat consensus machine driven op by op, the way the
// discrete-event simulator drives it, with a map standing in for the
// memory server.
type restartRig struct {
	m    *FlatConsensus
	rngs []xrand.Rand
	mem  map[[2]int32]sim.FlatResult // (pool, object) -> content
}

// apply executes op on the rig's memory: registers keep the last write,
// max registers the entry with the largest key (ties keep the
// incumbent).
func (g *restartRig) apply(op sim.FlatOp) sim.FlatResult {
	var pool int32
	switch op.Kind {
	case sim.OpWriteMax, sim.OpReadMax:
		pool = 1
	case sim.OpWriteV, sim.OpReadV:
		pool = 2
	}
	at := [2]int32{pool, op.Obj}
	cur := g.mem[at]
	switch op.Kind {
	case sim.OpWriteP, sim.OpWriteV:
		g.mem[at] = sim.FlatResult{OK: true, Val: op.Arg}
	case sim.OpWriteMax:
		if !cur.OK || op.Key > cur.Key {
			g.mem[at] = sim.FlatResult{OK: true, Val: op.Arg, Key: op.Key}
		}
	default:
		return cur
	}
	return sim.FlatResult{}
}

func newRestartRig(t *testing.T, conc string, inputs []int64, seed uint64) *restartRig {
	t.Helper()
	m, err := NewFlat(len(inputs), FlatConfig{Conciliator: conc, AC: ACRegister})
	if err != nil {
		t.Fatal(err)
	}
	m.Reset(inputs)
	g := &restartRig{m: m, rngs: make([]xrand.Rand, len(inputs)), mem: map[[2]int32]sim.FlatResult{}}
	root := xrand.New(seed)
	for pid := range inputs {
		root.ForkNamedInto(uint64(pid), &g.rngs[pid])
		m.Init(pid, &g.rngs[pid])
	}
	return g
}

// step runs one operation of pid and returns it, its result and what it
// did to pid.
func (g *restartRig) step(pid int) (sim.FlatOp, sim.FlatResult, Progress) {
	op := g.m.NextOp(pid)
	r := g.apply(op)
	return op, r, g.m.Deliver(pid, r, &g.rngs[pid])
}

// TestFlatRestartKeepsAdoptedPersona restarts process q (a second Init)
// once process r adopted q's phase-0 persona and q itself moved on into
// the phase's adopt-commit. The persona r carries must keep its value
// and randomness (r's remaining operations and its proposal match a run
// without the restart), q must be back at the first round of phase 0
// with its input, and q's new persona must be drawn from the rng handed
// to Init under a fresh persona id.
func TestFlatRestartKeepsAdoptedPersona(t *testing.T) {
	const q, r = 1, 2
	inputs := []int64{0, 1, 0, 0}
	n := len(inputs)
	for _, conc := range []string{ConcSifter, ConcPriorityMax} {
		t.Run(conc, func(t *testing.T) {
			// prefix runs q's first operation, then r until r adopts q's
			// persona, then q through its conciliator and the first
			// adopt-commit operation. It reports whether r adopted.
			prefix := func(g *restartRig) bool {
				g.step(q)
				adopted := false
				for !adopted {
					_, res, prog := g.step(r)
					adopted = res.OK && res.Val == q
					if !adopted && prog != Running {
						return false
					}
				}
				for _, _, prog := g.step(q); prog == Running; _, _, prog = g.step(q) {
				}
				g.step(q)
				return true
			}
			var seed uint64
			for seed = 1; ; seed++ {
				if seed > 200 {
					t.Fatal("no seed in 1..200 lets r adopt q's persona")
				}
				if prefix(newRestartRig(t, conc, inputs, seed)) {
					break
				}
			}
			a, b := newRestartRig(t, conc, inputs, seed), newRestartRig(t, conc, inputs, seed)
			prefix(a)
			prefix(b)

			const restartSeed = 777
			rng := xrand.New(restartSeed)
			a.m.Init(q, rng)

			// q is back at phase 0 with its input.
			if b.m.inConc[q] {
				t.Fatal("q did not reach adopt-commit before the restart")
			}
			if a.m.Phase(q) != 0 || !a.m.inConc[q] || a.m.Decided(q) || a.m.pref[q] != inputs[q] {
				t.Fatalf("after the restart: phase %d, decided %v, preference %d; want 0, false, %d",
					a.m.Phase(q), a.m.Decided(q), a.m.pref[q], inputs[q])
			}

			// r carries q's old persona to the end of its conciliator
			// exactly as without the restart.
			var opsA, opsB []sim.FlatOp
			for _, g := range []*restartRig{a, b} {
				ops := &opsA
				if g == b {
					ops = &opsB
				}
				for {
					op, _, prog := g.step(r)
					*ops = append(*ops, op)
					if prog != Running {
						break
					}
				}
			}
			if !reflect.DeepEqual(opsA, opsB) {
				t.Fatalf("r's operations changed by q's restart:\n got %+v\nwant %+v", opsA, opsB)
			}
			if a.m.Proposal(r) != inputs[q] || b.m.Proposal(r) != inputs[q] {
				t.Fatalf("r proposes %d (%d without the restart), want q's input %d",
					a.m.Proposal(r), b.m.Proposal(r), inputs[q])
			}

			// q's new persona: drawn from the rng it was handed, in
			// persona.New's order, under a fresh id.
			var pcfg persona.Config
			rounds := a.m.Rounds()
			if conc == ConcSifter {
				pcfg.WriteProbs = conciliator.SifterProbs(n, rounds)
			} else {
				pcfg.PriorityRounds = rounds
			}
			pp := conciliator.NewFlatPersonae(pcfg)
			want := xrand.New(restartSeed)
			pp.Draw(inputs[q], want)
			if got, w := rng.Uint64(), want.Uint64(); got != w {
				t.Fatalf("the restart consumed a different part of its rng: next draw %d, want %d", got, w)
			}
			op := a.m.NextOp(q)
			if op.Obj != 0 {
				t.Fatalf("q's first op after the restart is on object %d, want phase 0 round 0", op.Obj)
			}
			write := op.Kind == sim.OpWriteP || op.Kind == sim.OpWriteMax
			if write && op.Arg < int32(n) {
				t.Fatalf("q's new persona reuses id %d, want a fresh id >= %d", op.Arg, n)
			}
			switch conc {
			case ConcSifter:
				if write != pp.WriteBit(0, 0) {
					t.Fatalf("q's round-0 op %+v does not follow its drawn write bit %v", op, pp.WriteBit(0, 0))
				}
			case ConcPriorityMax:
				if op.Kind != sim.OpWriteMax || op.Key != pp.Priority(0, 0) {
					t.Fatalf("q's first op %+v, want WriteMax with the drawn priority %d", op, pp.Priority(0, 0))
				}
			}
		})
	}
}
