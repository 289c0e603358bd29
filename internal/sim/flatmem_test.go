package sim

import (
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/metrics"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// TestFlatMemoryOps pins what each op kind does: empty reads, writes and
// the reads that see them, the max register's tie rule, and that the
// three pools do not alias.
func TestFlatMemoryOps(t *testing.T) {
	var fm FlatMemory
	for _, k := range []FlatOpKind{OpReadP, OpReadMax, OpReadV} {
		if got := fm.Apply(FlatOp{Kind: k, Obj: 2}); got != (FlatResult{}) {
			t.Errorf("read of empty object (kind %d) = %+v, want OK false, Val 0, Key 0", k, got)
		}
	}
	check := func(what string, op FlatOp, want FlatResult) {
		t.Helper()
		if got := fm.Apply(op); got != want {
			t.Errorf("%s: %+v = %+v, want %+v", what, op, got, want)
		}
	}
	check("WriteP", FlatOp{Kind: OpWriteP, Obj: 0, Arg: 7}, FlatResult{})
	check("ReadP", FlatOp{Kind: OpReadP, Obj: 0}, FlatResult{OK: true, Val: 7})
	check("WriteP id 0", FlatOp{Kind: OpWriteP, Obj: 1, Arg: 0}, FlatResult{})
	check("ReadP id 0", FlatOp{Kind: OpReadP, Obj: 1}, FlatResult{OK: true, Val: 0})

	check("WriteMax into empty, key 0", FlatOp{Kind: OpWriteMax, Obj: 0, Arg: 1, Key: 0}, FlatResult{})
	check("ReadMax key 0", FlatOp{Kind: OpReadMax, Obj: 0}, FlatResult{OK: true, Val: 1, Key: 0})
	check("WriteMax larger", FlatOp{Kind: OpWriteMax, Obj: 0, Arg: 2, Key: 5}, FlatResult{})
	check("WriteMax tie", FlatOp{Kind: OpWriteMax, Obj: 0, Arg: 3, Key: 5}, FlatResult{})
	check("ReadMax after tie", FlatOp{Kind: OpReadMax, Obj: 0}, FlatResult{OK: true, Val: 2, Key: 5})
	check("WriteMax smaller", FlatOp{Kind: OpWriteMax, Obj: 0, Arg: 4, Key: 4}, FlatResult{})
	check("ReadMax after smaller", FlatOp{Kind: OpReadMax, Obj: 0}, FlatResult{OK: true, Val: 2, Key: 5})
	check("WriteMax strictly larger", FlatOp{Kind: OpWriteMax, Obj: 0, Arg: 5, Key: 6}, FlatResult{})
	check("ReadMax after larger", FlatOp{Kind: OpReadMax, Obj: 0}, FlatResult{OK: true, Val: 5, Key: 6})

	check("WriteV", FlatOp{Kind: OpWriteV, Obj: 3, Arg: -4}, FlatResult{})
	check("ReadV", FlatOp{Kind: OpReadV, Obj: 3}, FlatResult{OK: true, Val: -4})
	check("WriteV overwrite", FlatOp{Kind: OpWriteV, Obj: 3, Arg: 0}, FlatResult{})
	check("ReadV overwritten", FlatOp{Kind: OpReadV, Obj: 3}, FlatResult{OK: true, Val: 0})

	// Object 2 of each pool is still empty: the pools are separate.
	for _, k := range []FlatOpKind{OpReadP, OpReadMax, OpReadV} {
		check("untouched object", FlatOp{Kind: k, Obj: 2}, FlatResult{})
	}
	check("value pool does not alias", FlatOp{Kind: OpReadV, Obj: 0}, FlatResult{})

	defer func() {
		if recover() == nil {
			t.Error("Apply of an unknown op kind did not panic")
		}
	}()
	fm.Apply(FlatOp{Kind: OpReadV + 1})
}

// TestFlatMemoryResetKeepsCapacity pins Reset: every object reads empty
// afterwards, and the pools keep their backing arrays, so regrowing them
// to the same size does not allocate.
func TestFlatMemoryResetKeepsCapacity(t *testing.T) {
	var fm FlatMemory
	fm.Grow(4, 4, 4)
	for obj := int32(0); obj < 4; obj++ {
		fm.ApplyP(FlatOp{Kind: OpWriteP, Obj: obj, Arg: obj})
		fm.ApplyMax(FlatOp{Kind: OpWriteMax, Obj: obj, Arg: obj, Key: 9})
		fm.ApplyV(FlatOp{Kind: OpWriteV, Obj: obj, Arg: obj})
	}
	caps := [3]int{cap(fm.pers), cap(fm.maxs), cap(fm.vals)}
	fm.Reset()
	if len(fm.pers)+len(fm.maxs)+len(fm.vals) != 0 {
		t.Fatalf("Reset left pools of length %d, %d, %d", len(fm.pers), len(fm.maxs), len(fm.vals))
	}
	if got := [3]int{cap(fm.pers), cap(fm.maxs), cap(fm.vals)}; got != caps {
		t.Fatalf("Reset changed pool capacities %v to %v", caps, got)
	}
	fm.Grow(4, 4, 4)
	for obj := int32(0); obj < 4; obj++ {
		for _, r := range []FlatResult{
			fm.ApplyP(FlatOp{Kind: OpReadP, Obj: obj}),
			fm.ApplyMax(FlatOp{Kind: OpReadMax, Obj: obj}),
			fm.ApplyV(FlatOp{Kind: OpReadV, Obj: obj}),
		} {
			if r != (FlatResult{}) {
				t.Errorf("object %d reads %+v after Reset, want empty", obj, r)
			}
		}
	}
}

// TestFlatMemoryZeroAllocs pins that once the pools are sized, neither
// the per-pool methods nor Apply allocate, and neither does a Reset
// followed by regrowth within capacity.
func TestFlatMemoryZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if metrics.Enabled() {
		t.Skip("allocation counts require metrics to be disabled")
	}
	var fm FlatMemory
	fm.Grow(8, 8, 8)
	ops := []FlatOp{
		{Kind: OpWriteP, Obj: 7, Arg: 1}, {Kind: OpReadP, Obj: 7},
		{Kind: OpWriteMax, Obj: 7, Arg: 1, Key: 3}, {Kind: OpReadMax, Obj: 7},
		{Kind: OpWriteV, Obj: 7, Arg: 1}, {Kind: OpReadV, Obj: 7},
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, op := range ops {
			fm.Apply(op)
		}
		fm.ApplyP(ops[1])
		fm.ApplyMax(ops[3])
		fm.ApplyV(ops[5])
		fm.Reset()
		fm.Grow(8, 8, 8)
	})
	if allocs != 0 {
		t.Errorf("sized FlatMemory allocates %v times per round of ops, want 0", allocs)
	}
}

// monitorCtx is the memory.Context the max-register monitor reads the
// calling process id from.
type monitorCtx struct{ id int }

func (monitorCtx) Step()           {}
func (monitorCtx) Exclusive() bool { return true }
func (c monitorCtx) ID() int       { return c.id }

// flatMaxer puts max register obj of a FlatMemory behind memory.Maxer so
// fault.MonitoredMaxer can watch it. Once forget is set, reads report
// the register as never written — the minimal wrong max register, which
// the harness must catch.
type flatMaxer struct {
	fm     *FlatMemory
	obj    int32
	forget bool
}

func (f *flatMaxer) WriteMax(_ memory.Context, key uint64, payload int32) {
	f.fm.Apply(FlatOp{Kind: OpWriteMax, Obj: f.obj, Arg: payload, Key: key})
}

func (f *flatMaxer) ReadMax(memory.Context) (uint64, int32, bool) {
	r := f.fm.Apply(FlatOp{Kind: OpReadMax, Obj: f.obj})
	if f.forget {
		return 0, 0, false
	}
	return r.Key, r.Val, r.OK
}

// maxHistoryViolations drives a seeded random sequence of WriteMax and
// ReadMax ops from 8 processes over three max registers of one
// FlatMemory, each watched by fault.MonitoredMaxer, and returns what the
// monitors report. Every register is written first and read last, so a
// read reporting an empty register is a violation; with lie set, the
// first register forgets its value before those last reads.
func maxHistoryViolations(seed uint64, ops int, lie bool) []fault.Violation {
	const regs, procs = 3, 8
	var fm FlatMemory
	mon := fault.NewMonitor()
	var inner [regs]flatMaxer
	var watched [regs]*fault.MonitoredMaxer[int32]
	for i := range watched {
		inner[i] = flatMaxer{fm: &fm, obj: int32(i)}
		watched[i] = fault.NewMonitoredMaxer[int32](&inner[i], mon)
		watched[i].WriteMax(monitorCtx{}, 1, 0)
	}
	rng := xrand.New(seed)
	for i := 0; i < ops; i++ {
		m, ctx := watched[rng.Intn(regs)], monitorCtx{id: rng.Intn(procs)}
		if rng.Intn(2) == 0 {
			m.WriteMax(ctx, 1+rng.Uint64n(1<<40), int32(ctx.id))
		} else {
			m.ReadMax(ctx)
		}
	}
	inner[0].forget = lie
	for _, m := range watched {
		m.ReadMax(monitorCtx{})
		m.Finish()
	}
	return mon.Finish()
}

// TestFlatMemoryMaxRegisterMonitored runs the max-register monitor —
// per-read floor and per-process monotone reads on every op, and the
// linearizability check on histories short enough for it — over
// FlatMemory's max registers, on short and long seeded histories.
func TestFlatMemoryMaxRegisterMonitored(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		for _, ops := range []int{30, 500} {
			if vs := maxHistoryViolations(seed, ops, false); len(vs) != 0 {
				t.Fatalf("seed %d, %d ops: FlatMemory max registers violate the monitor: %v", seed, ops, vs)
			}
		}
	}
}

// TestFlatMemoryMonitorCatchesLies is the expected-failure test guarding
// the harness above against vacuity: the same histories over a register
// that forgets its value on one read must be reported.
func TestFlatMemoryMonitorCatchesLies(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		for _, ops := range []int{30, 500} {
			vs := maxHistoryViolations(seed, ops, true)
			found := false
			for _, v := range vs {
				found = found || v.Monitor == "maxreg-monotonic"
			}
			if !found {
				t.Fatalf("seed %d, %d ops: a max register that forgot its value went unreported: %v", seed, ops, vs)
			}
		}
	}
}
