package rsm

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/adoptcommit"
	"github.com/oblivious-consensus/conciliator/internal/conciliator"
	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/metrics"
	"github.com/oblivious-consensus/conciliator/internal/sim"
)

// gateConciliator holds its first caller inside Conciliate until
// release is closed, announcing on entered that a proposer is inside the
// slot; later callers pass straight through.
type gateConciliator struct {
	once             sync.Once
	entered, release chan struct{}
}

func (g *gateConciliator) Conciliate(p *sim.Proc, v string) string {
	first := false
	g.once.Do(func() { first = true })
	if first {
		close(g.entered)
		<-g.release
	}
	p.Step()
	return v
}

func (*gateConciliator) StepBound() int { return 1 }

// freeInstances returns the protocols on the log's free list.
func (l *Log[V]) freeInstances() []*consensus.Protocol[V] {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*consensus.Protocol[V], len(l.free))
	for i, st := range l.free {
		out[i] = st.c
	}
	return out
}

// TestRecycleStragglerBlocksReuse: a proposer still inside slot 0 when
// Compact(1) runs keeps slot 0's instance off the free list for good —
// the next slot gets a freshly built instance, and the straggler still
// decides its own value on the untouched one. Without a straggler,
// compaction recycles.
func TestRecycleStragglerBlocksReuse(t *testing.T) {
	gate := &gateConciliator{entered: make(chan struct{}), release: make(chan struct{})}
	var (
		made  atomic.Int32
		gated *consensus.Protocol[string]
	)
	// mk runs under the log's mutex, so gated is published to every
	// later slot lookup.
	log := NewLog[string](2, func(n int) *consensus.Protocol[string] {
		if made.Add(1) > 1 {
			return consensus.NewRegister[string](n)
		}
		gated = consensus.New(n, consensus.Config[string]{
			NewConciliator: func(int) conciliator.Interface[string] { return gate },
			NewAdoptCommit: func(int) adoptcommit.Object[string] { return adoptcommit.NewHashAC[string]() },
		})
		return gated
	})
	var straggler string
	_, err := sim.RunConcurrent(2, func(p *sim.Proc) {
		if p.ID() == 0 {
			straggler = log.Propose(p, 0, "straggler")
			return
		}
		<-gate.entered
		defer close(gate.release)
		log.Compact(1)
		if got := log.Slots(); got != 0 {
			t.Errorf("Slots() = %d after Compact(1), want 0", got)
		}
		if free := log.freeInstances(); len(free) != 0 {
			t.Errorf("Compact recycled slot 0's instance with a proposer inside it")
		}
		if got := log.Propose(p, 1, "next"); got != "next" || made.Load() != 2 {
			t.Errorf("slot 1 decided %q with %d instances built, want \"next\" on a fresh second instance", got, made.Load())
		}
		log.Compact(2)
		if got := log.Propose(p, 2, "again"); got != "again" || made.Load() != 2 {
			t.Errorf("slot 2 decided %q with %d instances built, want \"again\" on slot 1's recycled instance", got, made.Load())
		}
	}, sim.Config{AlgSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if straggler != "straggler" {
		t.Fatalf("straggler decided %q, want its own value", straggler)
	}
	log.Compact(3)
	for _, c := range log.freeInstances() {
		if c == gated {
			t.Fatal("straggler's instance reached the free list after it left")
		}
	}
}

// TestRecycleProposeIntoCompactedPanics: once compacted, a slot — built
// or never touched — can no longer be proposed into.
func TestRecycleProposeIntoCompactedPanics(t *testing.T) {
	log := NewLog[string](1, consensus.NewRegister[string])
	_, err := sim.RunConcurrent(1, func(p *sim.Proc) {
		log.Propose(p, 0, "a")
	}, sim.Config{AlgSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	log.Compact(5)
	log.Compact(2) // a lower watermark is a no-op
	for _, slot := range []int{0, 3, 4} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "compacted") {
					t.Errorf("Propose into compacted slot %d: panic %q, want a compacted-slot message", slot, msg)
				}
			}()
			log.Propose(nil, slot, "late")
		}()
	}
	_, err = sim.RunConcurrent(1, func(p *sim.Proc) {
		if got := log.Propose(p, 5, "b"); got != "b" {
			t.Errorf("slot 5 decided %q, want b", got)
		}
	}, sim.Config{AlgSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecycleAgreementUnderRunConcurrent: two proposers with distinct
// values contend for every slot on real goroutines while the log
// recycles instances behind them; every slot must still satisfy
// agreement and validity, and almost every slot must run on a recycled
// instance. Run it under -race: it is the memory-model check for Reset's
// plain stores.
func TestRecycleAgreementUnderRunConcurrent(t *testing.T) {
	const (
		slots = 2500
		lag   = 4 // how many slots one proposer may run ahead
	)
	var made atomic.Int32
	log := NewLog[string](2, func(n int) *consensus.Protocol[string] {
		made.Add(1)
		return consensus.NewRegister[string](n)
	})
	var (
		decided [2][]string
		done    [2]atomic.Int64
		exited  [2]atomic.Bool // so a proposer that panicked cannot stall the other
	)
	for id := range decided {
		decided[id] = make([]string, slots)
	}
	_, err := sim.RunConcurrent(2, func(p *sim.Proc) {
		id, other := p.ID(), 1-p.ID()
		defer exited[id].Store(true)
		for s := 0; s < slots; s++ {
			for int64(s) > done[other].Load()+lag && !exited[other].Load() {
				runtime.Gosched()
			}
			decided[id][s] = log.Propose(p, s, fmt.Sprintf("p%d/s%d", id, s))
			done[id].Store(int64(s + 1))
			log.Compact(int(min(done[0].Load(), done[1].Load())))
		}
	}, sim.Config{AlgSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < slots; s++ {
		a, b := decided[0][s], decided[1][s]
		if a != b {
			t.Fatalf("slot %d: agreement broken, %q vs %q", s, a, b)
		}
		if a != fmt.Sprintf("p0/s%d", s) && a != fmt.Sprintf("p1/s%d", s) {
			t.Fatalf("slot %d: decided %q, which nobody proposed there", s, a)
		}
	}
	if m := int(made.Load()); slots-m < 2000 {
		t.Fatalf("built %d instances for %d slots: only %d slots ran on recycled instances", m, slots, slots-m)
	}
}

// TestProposeCompactSteadyStateAllocs pins the recycling payoff: a slot
// proposed and compacted on a recycled register-model instance costs a
// handful of allocations (the per-call conciliator run, persona, and
// lock-free register boxes), not the ~350 of building the instance.
func TestProposeCompactSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if metrics.Enabled() {
		t.Skip("allocation counts require metrics to be disabled")
	}
	const budget = 16
	log := NewLog[string](1, consensus.NewRegister[string])
	batch := "rsm-batch/v1\n1 7 42 \"k001\" \"v1\"\n"
	var allocs float64
	_, err := sim.RunConcurrent(1, func(p *sim.Proc) {
		slot := 0
		propose := func() {
			log.Propose(p, slot, batch)
			slot++
			log.Compact(slot)
		}
		propose() // build the one instance the loop recycles
		allocs = testing.AllocsPerRun(200, propose)
	}, sim.Config{AlgSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > budget {
		t.Fatalf("Propose+Compact steady state = %v allocs/slot, want <= %d", allocs, budget)
	}
	t.Logf("Propose+Compact steady state: %v allocs/slot", allocs)
}

// BenchmarkLogProposeCompact measures one solo slot on the service's
// write path: Propose a batch-sized string into the next slot of a
// register-model log, then compact it so its instance is recycled.
func BenchmarkLogProposeCompact(b *testing.B) {
	log := NewLog[string](1, consensus.NewRegister[string])
	batch := "rsm-batch/v1\n1 7 42 \"k001\" \"v1\"\n"
	b.ReportAllocs()
	_, err := sim.RunConcurrent(1, func(p *sim.Proc) {
		for slot := 0; slot < b.N; slot++ {
			log.Propose(p, slot, batch)
			log.Compact(slot + 1)
		}
	}, sim.Config{AlgSeed: 7})
	if err != nil {
		b.Fatal(err)
	}
}
