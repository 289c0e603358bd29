package memory

import (
	"fmt"
	"strings"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/metrics"
)

// repCase is one object class's sequential operation script. run
// returns the script's observable trace: every return value, rendered in
// order. want holds the exact counter
// deltas the script must produce in both representations, except
// memory.register.casretry, which is pinned per representation; any
// counter outside the class's own prefixes must not move.
type repCase struct {
	name     string
	prefixes []string
	want     map[string]int64
	run      func(ctx Context, obs func(format string, args ...any))
}

var repCases = []repCase{
	{
		name:     "Register",
		prefixes: []string{"memory.register."},
		want: map[string]int64{
			"memory.register.read":  3, // two Reads and the CompareEmptyAndWrite that observes 2
			"memory.register.write": 3, // two Writes and the empty-install
		},
		run: func(ctx Context, obs func(string, ...any)) {
			reg := NewRegister[int]()
			v, ok := reg.Read(ctx)
			obs("reg.Read=%d,%v", v, ok)
			reg.Write(ctx, 1)
			reg.Write(ctx, 2)
			v, ok = reg.Read(ctx)
			obs("reg.Read=%d,%v", v, ok)
			v, ok = reg.CompareEmptyAndWrite(ctx, 3) // set: observes 2
			obs("reg.CEW=%d,%v", v, ok)
			empty := NewRegister[int]()
			v, ok = empty.CompareEmptyAndWrite(ctx, 4) // empty: installs 4
			obs("empty.CEW=%d,%v", v, ok)
		},
	},
	{
		name:     "MaxRegister",
		prefixes: []string{"memory.maxreg."},
		want: map[string]int64{
			"memory.maxreg.write":    4,
			"memory.maxreg.read":     3,
			"memory.maxreg.casretry": 0,
		},
		run: func(ctx Context, obs func(string, ...any)) {
			maxr := NewMaxRegister[string]()
			k, p, ok := maxr.ReadMax(ctx)
			obs("max.ReadMax=%d,%q,%v", k, p, ok)
			maxr.WriteMax(ctx, 5, "five")
			maxr.WriteMax(ctx, 3, "three")      // dominated: dropped
			maxr.WriteMax(ctx, 5, "five-again") // tie: incumbent payload kept
			k, p, ok = maxr.ReadMax(ctx)
			obs("max.ReadMax=%d,%q,%v", k, p, ok)
			maxr.WriteMax(ctx, 9, "nine")
			k, p, ok = maxr.ReadMax(ctx)
			obs("max.ReadMax=%d,%q,%v", k, p, ok)
		},
	},
	{
		name:     "Snapshot",
		prefixes: []string{"memory.snapshot."},
		want: map[string]int64{
			"memory.snapshot.update":   3,
			"memory.snapshot.scan":     2,
			"memory.snapshot.casretry": 0,
		},
		run: func(ctx Context, obs func(string, ...any)) {
			snap := NewSnapshot[int](3)
			obs("snap.Scan=%v", snap.Scan(ctx))
			snap.Update(ctx, 1, 11)
			snap.Update(ctx, 2, 22)
			snap.Update(ctx, 1, 12)
			buf := make([]Entry[int], 3)
			buf[0] = Entry[int]{Value: 99, OK: true} // stale contents must be overwritten
			obs("snap.ScanInto=%v", snap.ScanInto(ctx, buf))
		},
	},
	{
		name:     "TreeMaxRegister",
		prefixes: []string{"memory.treemax.", "memory.register."},
		want: map[string]int64{
			"memory.treemax.write": 6,
			"memory.treemax.read":  7,
		},
		run: func(ctx Context, obs func(string, ...any)) {
			tree := NewTreeMaxRegister[string](6)
			k, p, ok := tree.ReadMax(ctx)
			obs("tree.ReadMax=%d,%q,%v", k, p, ok)
			for _, w := range []struct {
				k uint64
				p string
			}{{5, "a"}, {40, "b"}, {17, "c"}, {40, "tie"}, {63, "d"}, {2, "e"}} {
				tree.WriteMax(ctx, w.k, w.p)
				k, p, ok = tree.ReadMax(ctx)
				obs("tree.ReadMax=%d,%q,%v", k, p, ok)
			}
		},
	},
	{
		name:     "AfekSnapshot",
		prefixes: []string{"memory.afek.", "memory.register."},
		want: map[string]int64{
			"memory.afek.update": 3,
			"memory.afek.scan":   2 + 3, // includes each update's embedded scan
		},
		run: func(ctx Context, obs func(string, ...any)) {
			afek := NewAfekSnapshot[int](3)
			obs("afek.Scan=%v", afek.Scan(ctx))
			afek.Update(ctx, 0, 7)
			afek.Update(ctx, 2, 8)
			afek.Update(ctx, 0, 9)
			obs("afek.Scan=%v", afek.Scan(ctx))
		},
	},
}

// TestRepresentationEquivalence runs each object class's sequential
// script through the direct representation (an Exclusive context) and
// the lock-free one (a non-exclusive context) and requires identical
// return values, charged steps and counter deltas. The one
// permitted difference is memory.register.casretry: the lock-free arm of
// a failed empty-install loses its CAS and counts it. The deltas also pin
// the accounting half of the operation order: each operation class moves
// exactly its own counters, and the unit-cost counters sum to the steps
// charged.
func TestRepresentationEquivalence(t *testing.T) {
	metrics.SetDefault(metrics.New())
	defer metrics.SetDefault(nil)

	type result struct {
		name  string
		trace []string
		steps int
		delta map[string]int64
	}
	for _, tc := range repCases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(name string, exclusive bool) result {
				ctx := &countingCtx{exclusive: exclusive}
				var trace []string
				base := metrics.Default().Snapshot()
				tc.run(ctx, func(format string, args ...any) {
					trace = append(trace, fmt.Sprintf(format, args...))
				})
				return result{name, trace, ctx.steps, metrics.Default().Snapshot().Sub(base).Counters}
			}
			direct, lockFree := run("direct", true), run("lock-free", false)

			if len(direct.trace) != len(lockFree.trace) {
				t.Fatalf("trace lengths differ: direct %d, lock-free %d", len(direct.trace), len(lockFree.trace))
			}
			for i := range direct.trace {
				if direct.trace[i] != lockFree.trace[i] {
					t.Errorf("step %d: direct %s, lock-free %s", i, direct.trace[i], lockFree.trace[i])
				}
			}
			if direct.steps != lockFree.steps {
				t.Errorf("steps charged: direct %d, lock-free %d", direct.steps, lockFree.steps)
			}
			for _, pair := range [][2]map[string]int64{{direct.delta, lockFree.delta}, {lockFree.delta, direct.delta}} {
				for c, n := range pair[0] {
					if c != "memory.register.casretry" && pair[1][c] != n {
						t.Errorf("%s: deltas differ between representations (%d vs %d)", c, n, pair[1][c])
					}
				}
			}

			for _, r := range []result{direct, lockFree} {
				var casRetries int64
				if tc.name == "Register" && r.name == "lock-free" {
					casRetries = 1 // the failed empty-install
				}
				if got := r.delta["memory.register.casretry"]; got != casRetries {
					t.Errorf("%s: memory.register.casretry delta = %d, want %d", r.name, got, casRetries)
				}
				for c, n := range tc.want {
					if got := r.delta[c]; got != n {
						t.Errorf("%s: %s delta = %d, want %d", r.name, c, got, n)
					}
				}
				for c, n := range r.delta {
					own := false
					for _, prefix := range tc.prefixes {
						own = own || strings.HasPrefix(c, prefix)
					}
					if !own && strings.HasPrefix(c, "memory.") && n != 0 {
						t.Errorf("%s: %s moved by %d, outside the %s counters", r.name, c, n, tc.name)
					}
				}
				unit := r.delta["memory.register.read"] + r.delta["memory.register.write"] +
					r.delta["memory.maxreg.read"] + r.delta["memory.maxreg.write"] +
					r.delta["memory.snapshot.update"] + r.delta["memory.snapshot.scan"]
				if unit != int64(r.steps) {
					t.Errorf("%s: unit-cost op counters sum to %d, want the %d steps charged", r.name, unit, r.steps)
				}
			}
		})
	}
}

// TestRepresentationLatchIsSticky: an object's first operation latches
// its representation from ctx.Exclusive(), and every later operation —
// from either kind of context — follows the latch and observes the same
// state.
func TestRepresentationLatchIsSticky(t *testing.T) {
	for _, tc := range []struct {
		name          string
		first, second Context
		want          int32
	}{
		{"exclusive first", FreeExclusive, Free, repDirect},
		{"non-exclusive first", Free, FreeExclusive, repLockFree},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegister[int]()
			maxr := NewMaxRegister[int]()
			snap := NewSnapshot[int](2)
			reg.Write(tc.first, 5)
			maxr.WriteMax(tc.first, 5, 50)
			snap.Update(tc.first, 1, 5)
			for name, got := range map[string]int32{
				"Register": reg.rep.m.Load(), "MaxRegister": maxr.rep.m.Load(), "Snapshot": snap.rep.m.Load(),
			} {
				if got != tc.want {
					t.Errorf("%s latched %d, want %d", name, got, tc.want)
				}
			}

			if v, ok := reg.Read(tc.second); !ok || v != 5 {
				t.Errorf("Register.Read = (%d, %v), want (5, true)", v, ok)
			}
			reg.Write(tc.second, 6)
			if v, ok := reg.Read(tc.first); !ok || v != 6 {
				t.Errorf("Register.Read after second-context write = (%d, %v), want (6, true)", v, ok)
			}
			maxr.WriteMax(tc.second, 7, 70)
			if k, p, ok := maxr.ReadMax(tc.first); !ok || k != 7 || p != 70 {
				t.Errorf("ReadMax = (%d, %d, %v), want (7, 70, true)", k, p, ok)
			}
			snap.Update(tc.second, 0, 4)
			if view := snap.Scan(tc.first); view[0] != (Entry[int]{Value: 4, OK: true}) || view[1] != (Entry[int]{Value: 5, OK: true}) {
				t.Errorf("Scan = %v, want [4 5]", view)
			}
			if got := reg.rep.m.Load(); got != tc.want {
				t.Errorf("Register latch moved to %d after second-context operations, want %d", got, tc.want)
			}
		})
	}
}

// faultCountingCtx is a countingCtx carrying an always-active Faulter
// whose hooks only count their calls and never weaken an operation.
type faultCountingCtx struct {
	countingCtx
	hooks int
}

func (c *faultCountingCtx) FaultActive() bool      { return true }
func (c *faultCountingCtx) FaultOnWrite(any, any)  { c.hooks++ }
func (c *faultCountingCtx) FaultScanDepth(any) int { c.hooks++; return 0 }
func (c *faultCountingCtx) FaultOnRead(any) (any, bool) {
	c.hooks++
	return nil, false
}
func (c *faultCountingCtx) FaultStaleAt(any, int) (any, bool) {
	c.hooks++
	return nil, false
}

// TestFaultHooksOnlyInDirectRepresentation: only the direct
// representation asks its context for a Faulter. The same scripts run
// under an active Faulter call its hooks on direct-latched objects and
// never on lock-free ones, so a faulted run cannot reach the lock-free
// objects the service and the concurrent engine use.
func TestFaultHooksOnlyInDirectRepresentation(t *testing.T) {
	for _, tc := range repCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, exclusive := range []bool{true, false} {
				ctx := &faultCountingCtx{countingCtx: countingCtx{exclusive: exclusive}}
				tc.run(ctx, func(string, ...any) {})
				if exclusive && ctx.hooks == 0 {
					t.Error("direct representation never consulted the Faulter")
				}
				if !exclusive && ctx.hooks != 0 {
					t.Errorf("lock-free representation made %d Faulter calls, want 0", ctx.hooks)
				}
			}
		})
	}
}
