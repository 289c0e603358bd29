package memory

import "sync/atomic"

// Faulter is an optional Context capability through which a fault
// injector (internal/fault) weakens register semantics. The memory
// objects consult it on every operation while at least one faulted run
// is active in the process (see ArmFaults): writes are mirrored into a
// per-run history, and reads/scans may be answered with stale values
// instead of the current state.
//
// Protocol:
//   - FaultActive gates everything: a Context may implement the
//     interface permanently (the simulator's process handle does) and
//     report false whenever its run carries no fault schedule.
//   - FaultOnWrite records v as the newest value of the shared object —
//     or snapshot component — identified by key. Keys are compared by
//     interface identity; objects use their own pointer, components use
//     ComponentKey.
//   - FaultOnRead counts one read-class operation and returns its
//     substitute: hit=false means read normally; hit=true with
//     stale==nil means observe "never written"; otherwise stale holds a
//     value previously recorded for key.
//   - FaultScanDepth counts one scan operation and returns the
//     staleness depth imposed on it (0 = atomic scan).
//   - FaultStaleAt answers "the value depth writes back" for key;
//     ok=false means unwritten at that depth.
type Faulter interface {
	FaultActive() bool
	FaultOnWrite(key any, v any)
	FaultOnRead(key any) (stale any, hit bool)
	FaultScanDepth(obj any) int
	FaultStaleAt(key any, depth int) (v any, ok bool)
}

// ComponentKey identifies one component of a multi-component shared
// object (a Snapshot) in fault histories.
type ComponentKey struct {
	Obj any
	I   int
}

// faultArm counts runs with fault injection active anywhere in the
// process. The memory hot paths check it with a single atomic load and
// take the fault branches only when it is nonzero, so fault support is
// free for every run while no faulted run exists — in particular the
// exclusive-mode fast path stays allocation-free and pays no more than
// that one load per operation.
var faultArm atomic.Int64

// ArmFaults marks a faulted run active; pair with DisarmFaults.
func ArmFaults() { faultArm.Add(1) }

// DisarmFaults reverses one ArmFaults.
func DisarmFaults() {
	if faultArm.Add(-1) < 0 {
		panic("memory: DisarmFaults without matching ArmFaults")
	}
}

// faultsArmed is the hot-path gate: true while any faulted run exists.
func faultsArmed() bool { return faultArm.Load() != 0 }

// asFaulter returns ctx's injector view if ctx carries an active one.
// Callers must check faultsArmed first; keeping the interface assertion
// out of the armed==false path keeps the disabled cost to one load.
func asFaulter(ctx Context) Faulter {
	if f, ok := ctx.(Faulter); ok && f.FaultActive() {
		return f
	}
	return nil
}
