package service

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/rsm"
)

// testBatch returns a decided batch for slot carrying one waiter per op,
// decided as proposed. Waiters' done channels hold two sends, so a
// second wake would show up as a count instead of blocking the test.
func testBatch(slot int, ops ...rsm.Op) decidedBatch {
	d := decidedBatch{slot: slot}
	bops := make([]BatchOp, len(ops))
	for i, op := range ops {
		po := &pendingOp{tag: Tag{Client: 1, Seq: uint64(10*slot + i)}, op: op, done: make(chan struct{}, 2)}
		d.waiters = append(d.waiters, po)
		bops[i] = BatchOp{Tag: po.tag, Op: op}
	}
	d.proposed = EncodeBatch(bops)
	d.decided = d.proposed
	return d
}

// TestDeliverAppliesInSlotOrder delivers slot 1 before slot 0 straight
// into a group with no workers: nothing applies until slot 0 arrives,
// then both apply in slot order, each waiter wakes exactly once, and the
// stash ends empty.
func TestDeliverAppliesInSlotOrder(t *testing.T) {
	n := &Node{cfg: Config{Pipeline: 2}}
	if err := n.cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	g := newGroup(n, 0, consensus.NewRegister[string])
	inc := rsm.Op{Kind: rsm.OpInc, Key: "c"}
	b0 := testBatch(0, inc)
	b1 := testBatch(1, inc, rsm.Op{Kind: rsm.OpSet, Key: "k", Value: "v"})

	g.deliver(b1)
	for _, po := range b1.waiters {
		if len(po.done) != 0 {
			t.Fatal("slot 1 woke a waiter before slot 0 was decided")
		}
	}
	g.mu.RLock()
	applied, stashed := g.appliedSlots, len(g.stash)
	_, found := g.kv.Get("c")
	g.mu.RUnlock()
	if applied != 0 || found || stashed != 1 {
		t.Fatalf("after slot 1 alone: %d slots applied, key c present %v, %d stashed; want 0, false, 1", applied, found, stashed)
	}

	g.deliver(b0)
	for _, b := range []decidedBatch{b0, b1} {
		for i, po := range b.waiters {
			if got := len(po.done); got != 1 {
				t.Fatalf("slot %d waiter %d woken %d times, want 1", b.slot, i, got)
			}
			if po.err != nil || po.res.Slot != b.slot {
				t.Fatalf("slot %d waiter %d: result %+v, err %v", b.slot, i, po.res, po.err)
			}
		}
	}
	// The shared counter reads 1 after slot 0 and 2 after slot 1 only if
	// the slots applied in order.
	if v0, v1 := b0.waiters[0].res.Value, b1.waiters[0].res.Value; v0 != "1" || v1 != "2" {
		t.Fatalf("counter after slots 0, 1 = %q, %q; want \"1\", \"2\"", v0, v1)
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	if len(g.stash) != 0 || g.next != 2 {
		t.Fatalf("stash holds %d slots, next %d; want 0, 2", len(g.stash), g.next)
	}
	if len(g.decidedLog) != 2 || g.decidedLog[0] != b0.decided || g.decidedLog[1] != b1.decided {
		t.Fatalf("decided log %q, want slot 0 then slot 1", g.decidedLog)
	}
}

// TestDeliverMismatchFailsGroup sends a batch whose decided value is not
// its proposal through the delivery path of a running node: that
// batch's waiter and every later Submit to the group fail with the
// error, reads still answer, and Close reports it.
func TestDeliverMismatchFailsGroup(t *testing.T) {
	n, err := Start(Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	g := n.groups[0]
	bad := testBatch(int(g.nextSlot.Add(1)-1), rsm.Op{Kind: rsm.OpSet, Key: "k", Value: "v"})
	bad.decided = "not the proposal"
	g.deliver(bad)
	po := bad.waiters[0]
	<-po.done
	if po.err == nil {
		t.Fatal("waiter of a mismatched batch got no error")
	}

	if _, err := n.Submit(1, rsm.Op{Kind: rsm.OpSet, Key: "k", Value: "w"}); err == nil {
		t.Fatal("Submit to a failed group succeeded")
	}
	got := make(chan bool, 1)
	go func() {
		_, found := n.Get("k")
		got <- found
	}()
	select {
	case found := <-got:
		if found {
			t.Fatal("a failed group applied a write")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Get blocked on a failed group")
	}
	err = n.Close()
	if err == nil || !strings.Contains(err.Error(), "nobody proposed") {
		t.Fatalf("Close = %v, want the apply-invariant error", err)
	}
	if !errors.Is(err, *g.failure.Load()) {
		t.Fatalf("Close = %v does not wrap the group's recorded error", err)
	}
}

// TestSubmitAllocs pins the steady-state heap allocations of one solo
// Submit — intake, encode, a whole consensus slot and the apply — so
// allocations the apply path shed cannot creep back. The sifter's coin
// decides how many register writes (and so boxes) a slot allocates; one
// worker draws every slot's coins from one stream, which makes the
// average over a fixed run of submits exact.
func TestSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations inflate the count")
	}
	n, err := Start(Config{Pipeline: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	op := rsm.Op{Kind: rsm.OpSet, Key: "k", Value: "v"}
	log := n.groups[0].log
	submit := func() {
		if _, err := n.Submit(0, op); err != nil {
			t.Fatal(err)
		}
		// The worker compacts the slot after waking the submitter; wait
		// for it so each run's allocations land inside its own window.
		for log.Slots() != 0 {
			runtime.Gosched()
		}
	}
	for i := 0; i < 100; i++ {
		submit()
	}
	const want = 14
	if got := testing.AllocsPerRun(500, submit); got != want {
		t.Errorf("solo Submit allocates %v times, want %d", got, want)
	}
}
