package memory

// Faulter is an optional Context capability through which a fault
// injector (internal/fault) weakens register semantics. Only the direct
// representation consults it, on every operation: a faulted run is
// always controlled (the concurrent and flat engines refuse fault
// schedules), so its objects latch direct, and the lock-free branches
// carry no fault code. Writes are mirrored into a per-run history, and
// reads/scans may be answered with stale values instead of the current
// state.
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

// asFaulter returns ctx's injector view if ctx carries an active one.
func asFaulter(ctx Context) Faulter {
	if f, ok := ctx.(Faulter); ok && f.FaultActive() {
		return f
	}
	return nil
}
