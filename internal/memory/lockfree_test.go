// External test package: these tests drive the lock-free object
// representations through the concurrent simulator (package memory can't
// import sim directly — sim depends on memory) and validate recorded
// histories with the linearize checker.
package memory_test

import (
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/linearize"
	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
)

// stepCtx is a non-exclusive Context that counts the steps charged
// through it.
type stepCtx struct{ steps int }

func (c *stepCtx) Step()           { c.steps++ }
func (c *stepCtx) Exclusive() bool { return false }

func TestLockFreeRegisterBasics(t *testing.T) {
	ctx := &stepCtx{}
	r := memory.NewRegister[int]()
	if _, ok := r.Read(ctx); ok {
		t.Fatal("fresh register reads as written")
	}
	r.Write(ctx, 42)
	if v, ok := r.Read(ctx); !ok || v != 42 {
		t.Fatalf("Read = (%d, %v), want (42, true)", v, ok)
	}
	if v, installed := r.CompareEmptyAndWrite(ctx, 7); installed || v != 42 {
		t.Fatalf("CompareEmptyAndWrite on set register = (%d, %v), want (42, false)", v, installed)
	}
	if ctx.steps != 4 {
		t.Errorf("r's operations charged %d steps, want 4", ctx.steps)
	}
	r2 := memory.NewRegister[int]()
	if v, installed := r2.CompareEmptyAndWrite(ctx, 7); !installed || v != 7 {
		t.Fatalf("CompareEmptyAndWrite on empty register = (%d, %v), want (7, true)", v, installed)
	}
}

func TestLockFreeMaxRegisterBasics(t *testing.T) {
	ctx := memory.Free
	m := memory.NewMaxRegister[string]()
	if _, _, ok := m.ReadMax(ctx); ok {
		t.Fatal("fresh max register reads as written")
	}
	m.WriteMax(ctx, 5, "five")
	m.WriteMax(ctx, 3, "three") // dominated: dropped
	if k, p, ok := m.ReadMax(ctx); !ok || k != 5 || p != "five" {
		t.Fatalf("ReadMax = (%d, %q, %v), want (5, five, true)", k, p, ok)
	}
	m.WriteMax(ctx, 5, "five-again") // tie: incumbent payload kept
	if _, p, _ := m.ReadMax(ctx); p != "five" {
		t.Fatalf("tie write replaced payload: got %q", p)
	}
	m.WriteMax(ctx, 9, "nine")
	if k, p, ok := m.ReadMax(ctx); !ok || k != 9 || p != "nine" {
		t.Fatalf("ReadMax = (%d, %q, %v), want (9, nine, true)", k, p, ok)
	}
}

func TestLockFreeSnapshotBasics(t *testing.T) {
	ctx := memory.Free
	s := memory.NewSnapshot[int](3)
	view := s.Scan(ctx)
	for i, e := range view {
		if e.OK {
			t.Fatalf("fresh snapshot component %d set", i)
		}
	}
	s.Update(ctx, 1, 11)
	s.Update(ctx, 2, 22)
	// A reused buffer must be fully overwritten, including unset slots.
	view = s.ScanInto(ctx, view)
	want := []memory.Entry[int]{{}, {Value: 11, OK: true}, {Value: 22, OK: true}}
	for i := range want {
		if view[i] != want[i] {
			t.Fatalf("view[%d] = %+v, want %+v", i, view[i], want[i])
		}
	}
}

func TestLockFreeTreeMaxRegister(t *testing.T) {
	ctx := memory.Free
	tr := memory.NewTreeMaxRegister[string](6)
	writes := []struct {
		k uint64
		p string
	}{{5, "a"}, {40, "b"}, {17, "c"}, {63, "d"}, {2, "e"}}
	for _, w := range writes {
		tr.WriteMax(ctx, w.k, w.p)
	}
	if k, p, ok := tr.ReadMax(ctx); !ok || k != 63 || p != "d" {
		t.Fatalf("ReadMax = (%d, %q, %v), want (63, d, true)", k, p, ok)
	}
}

// TestRepresentationOwnershipHandoff exercises the one condition the
// direct representation puts on non-exclusive callers: objects a
// controlled run latched direct may be used through non-exclusive
// contexts once that run has returned. The checks read them with Free on
// the test goroutine and then from a concurrent run's goroutines; under
// -race this pins that RunControlled's return orders every plain-field
// write of the run before those reads.
func TestRepresentationOwnershipHandoff(t *testing.T) {
	const n, iters = 4, 8
	reg := memory.NewRegister[int]()
	maxr := memory.NewMaxRegister[int]()
	snap := memory.NewSnapshot[int](n)
	tree := memory.NewTreeMaxRegister[int](8)
	afek := memory.NewAfekSnapshot[int](n)
	if _, err := sim.RunControlled(sched.New(sched.KindRandom, n, 3), func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			key := uint64(p.ID()*iters + i)
			reg.Write(p, p.ID())
			maxr.WriteMax(p, key, p.ID())
			tree.WriteMax(p, key, p.ID())
			snap.Update(p, p.ID(), i)
		}
		afek.Update(p, p.ID(), p.ID()+1)
	}, sim.Config{AlgSeed: 1}); err != nil {
		t.Fatal(err)
	}

	const wantMax = n*iters - 1
	check := func(t *testing.T, who string, ctx memory.Context) {
		if v, ok := reg.Read(ctx); !ok || v < 0 || v >= n {
			t.Errorf("%s: Register.Read = (%d, %v), want a pid", who, v, ok)
		}
		if k, p, ok := maxr.ReadMax(ctx); !ok || k != wantMax || p != n-1 {
			t.Errorf("%s: MaxRegister.ReadMax = (%d, %d, %v), want (%d, %d, true)", who, k, p, ok, wantMax, n-1)
		}
		if k, p, ok := tree.ReadMax(ctx); !ok || k != wantMax || p != n-1 {
			t.Errorf("%s: TreeMaxRegister.ReadMax = (%d, %d, %v), want (%d, %d, true)", who, k, p, ok, wantMax, n-1)
		}
		for i, e := range snap.Scan(ctx) {
			if !e.OK || e.Value != iters-1 {
				t.Errorf("%s: Snapshot component %d = %+v, want (%d, true)", who, i, e, iters-1)
			}
		}
		for i, e := range afek.Scan(ctx) {
			if !e.OK || e.Value != i+1 {
				t.Errorf("%s: AfekSnapshot component %d = %+v, want (%d, true)", who, i, e, i+1)
			}
		}
	}
	t.Run("Free", func(t *testing.T) { check(t, "Free", memory.Free) })
	t.Run("concurrent", func(t *testing.T) {
		runConcurrently(t, n, 5, func(p *sim.Proc) { check(t, "concurrent reader", p) })
	})
}

// runConcurrently runs body on n real goroutines through the concurrent
// simulator, failing the test on any runner error.
func runConcurrently(t *testing.T, n int, seed uint64, body sim.Body) {
	t.Helper()
	if _, err := sim.RunConcurrent(n, body, sim.Config{AlgSeed: seed}); err != nil {
		t.Fatal(err)
	}
}

func TestLockFreeRegisterHistoryLinearizes(t *testing.T) {
	// 4 processes × (2 writes + 2 reads) = 24 ops, within the checker's
	// 64-op window. The Go scheduler provides the interleaving; the
	// checker must find a witness linearization for every recorded run.
	for seed := uint64(1); seed <= 5; seed++ {
		reg := memory.NewRegister[int]()
		var rec linearize.Recorder
		runConcurrently(t, 4, seed, func(p *sim.Proc) {
			for i := 0; i < 2; i++ {
				arg := int64(p.ID()*10 + i + 1)
				s := rec.Begin()
				reg.Write(p, int(arg))
				rec.EndWrite(p.ID(), arg, s)
				s = rec.Begin()
				v, ok := reg.Read(p)
				rec.EndRead(p.ID(), int64(v), ok, s)
			}
		})
		ok, err := linearize.Check(linearize.RegisterSemantics{}, rec.History())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("seed %d: lock-free register history has no linearization:\n%+v", seed, rec.History())
		}
	}
}

func TestLockFreeMaxRegisterHistoryLinearizes(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		maxr := memory.NewMaxRegister[int]()
		var rec linearize.Recorder
		runConcurrently(t, 4, seed, func(p *sim.Proc) {
			for i := 0; i < 2; i++ {
				key := uint64(p.ID()*10 + i + 1)
				s := rec.Begin()
				maxr.WriteMax(p, key, int(key))
				rec.EndWrite(p.ID(), int64(key), s)
				s = rec.Begin()
				k, _, ok := maxr.ReadMax(p)
				rec.EndRead(p.ID(), int64(k), ok, s)
			}
		})
		ok, err := linearize.Check(linearize.MaxRegisterSemantics{}, rec.History())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("seed %d: lock-free max-register history has no linearization:\n%+v", seed, rec.History())
		}
	}
}

func TestLockFreeSnapshotViewsNested(t *testing.T) {
	// Linearizability of the snapshot implies every pair of views is
	// subset-ordered; with the lock-free representation each view is one
	// atomic load of the immutable vector, so nesting must hold exactly.
	const n = 6
	snap := memory.NewSnapshot[int](n)
	views := make([][][]memory.Entry[int], n)
	runConcurrently(t, n, 99, func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			snap.Update(p, p.ID(), i+1)
			view := snap.Scan(p)
			mine := make([]memory.Entry[int], len(view))
			copy(mine, view)
			views[p.ID()] = append(views[p.ID()], mine)
		}
	})
	var all [][]memory.Entry[int]
	for _, vs := range views {
		all = append(all, vs...)
	}
	if !memory.ViewsNested(all) {
		t.Fatal("lock-free snapshot views are not nested")
	}
}

// TestLockFreeStress hammers every object class from many goroutines so
// `go test -race ./internal/memory` exercises the CAS paths under the
// race detector. Skipped object states are checked post-run through the
// sticky latch.
func TestLockFreeStress(t *testing.T) {
	const n = 16
	iters := 200
	if testing.Short() {
		iters = 50
	}
	reg := memory.NewRegister[int]()
	maxr := memory.NewMaxRegister[int]()
	tree := memory.NewTreeMaxRegister[int](10)
	snap := memory.NewSnapshot[int](n)
	afek := memory.NewAfekSnapshot[int](n)
	runConcurrently(t, n, 7, func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			reg.Write(p, p.ID())
			reg.Read(p)
			key := uint64(p.ID()*iters + i)
			maxr.WriteMax(p, key, p.ID())
			tree.WriteMax(p, key%1024, p.ID())
			snap.Update(p, p.ID(), i)
			if i%16 == 0 {
				snap.Scan(p)
				afek.Update(p, p.ID(), i)
			}
		}
	})
	wantMax := uint64((n-1)*iters + iters - 1)
	if k, _, ok := maxr.ReadMax(memory.Free); !ok || k != wantMax {
		t.Errorf("ReadMax = (%d, %v), want (%d, true)", k, ok, wantMax)
	}
	view := snap.Scan(memory.Free)
	for i, e := range view {
		if !e.OK || e.Value != iters-1 {
			t.Errorf("snapshot component %d = %+v, want (%d, true)", i, e, iters-1)
		}
	}
	aview := afek.Scan(memory.Free)
	for i, e := range aview {
		if !e.OK {
			t.Errorf("afek component %d unset after stress", i)
		}
	}
}
