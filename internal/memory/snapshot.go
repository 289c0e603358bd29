package memory

import "sync/atomic"

// Entry is one component of a snapshot view: a value plus whether that
// component has ever been updated (the paper's "non-null S[j]").
type Entry[T any] struct {
	Value T
	OK    bool
}

// Snapshot is a unit-cost atomic snapshot object with n components, as
// assumed by Algorithm 1: Update installs a process's value in one step
// and Scan returns an atomic copy of all n components in one step. The
// unit cost is the modeling assumption the paper makes explicit ("we treat
// all operations as taking one step", Section 2); AfekSnapshot in this
// package shows how to realize the same interface from plain registers at
// higher cost.
//
// Lock-free representation: lf points to an immutable component vector
// (nil = all components null). An Update is a CAS loop that copies the
// vector, sets its component, and installs the copy; a Scan is a single
// atomic load — wait-free, and trivially atomic because the loaded
// vector is never mutated after publication. This is the lock-free
// analogue of the object's unit-cost promise: the scan really is one
// hardware operation plus a private copy.
type Snapshot[T any] struct {
	rep  repMode
	lf   atomic.Pointer[[]Entry[T]]
	vals []Entry[T]
}

// NewSnapshot returns an n-component snapshot object with all components
// null.
func NewSnapshot[T any](n int) *Snapshot[T] {
	return &Snapshot[T]{vals: make([]Entry[T], n)}
}

// Components returns the number of components n.
func (s *Snapshot[T]) Components() int { return len(s.vals) }

// Update atomically installs v as component i, charging one step.
func (s *Snapshot[T]) Update(ctx Context, i int, v T) {
	ctx.Step()
	if s.rep.of(ctx) == repLockFree {
		for {
			old := s.lf.Load()
			next := make([]Entry[T], len(s.vals))
			if old != nil {
				copy(next, *old)
			}
			next[i] = Entry[T]{Value: v, OK: true}
			if s.lf.CompareAndSwap(old, &next) {
				break
			}
			mSnapCAS.Inc()
		}
	} else {
		s.vals[i] = Entry[T]{Value: v, OK: true}
	}
	if faultsArmed() {
		if f := asFaulter(ctx); f != nil {
			f.FaultOnWrite(ComponentKey{Obj: s, I: i}, v)
		}
	}
	mSnapUpdate.Inc()
}

// Scan atomically returns a copy of all components, charging one step.
func (s *Snapshot[T]) Scan(ctx Context) []Entry[T] {
	return s.ScanInto(ctx, nil)
}

// ScanInto is Scan writing the view into buf, which is grown only when
// its capacity is below the component count. A caller that reuses the
// returned slice across scans allocates once per object, not per scan.
func (s *Snapshot[T]) ScanInto(ctx Context, buf []Entry[T]) []Entry[T] {
	ctx.Step()
	if cap(buf) < len(s.vals) {
		buf = make([]Entry[T], len(s.vals))
	} else {
		buf = buf[:len(s.vals)]
	}
	if s.rep.of(ctx) == repLockFree {
		if p := s.lf.Load(); p != nil {
			copy(buf, *p)
		} else {
			clear(buf)
		}
	} else {
		copy(buf, s.vals)
	}
	if faultsArmed() {
		if f := asFaulter(ctx); f != nil {
			if d := f.FaultScanDepth(s); d > 0 {
				// Bounded-staleness scan: every component observes the
				// state d updates back instead of the atomic copy.
				for i := range buf {
					if v, ok := f.FaultStaleAt(ComponentKey{Obj: s, I: i}, d); ok {
						buf[i] = Entry[T]{Value: v.(T), OK: true}
					} else {
						buf[i] = Entry[T]{}
					}
				}
			}
		}
	}
	mSnapScan.Inc()
	return buf
}

// ScanScratch is ScanInto backed by the caller's per-process scratch
// arena: the view buffer is keyed by this object on the Context's scratch
// map and reused across calls, so steady-state scans allocate nothing.
// The returned view is valid only until the same process's next
// ScanScratch of the same object. Contexts without the Scratcher
// capability fall back to a plain allocating Scan.
func (s *Snapshot[T]) ScanScratch(ctx Context) []Entry[T] {
	sc, ok := ctx.(Scratcher)
	if !ok {
		return s.Scan(ctx)
	}
	m := sc.ScratchMap()
	p, _ := m[s].(*[]Entry[T])
	if p == nil {
		p = new([]Entry[T])
		m[s] = p
	}
	*p = s.ScanInto(ctx, *p)
	return *p
}

// ViewSubset reports whether view a is a subset of view b in the sense of
// the Lemma 1 proof: every component set in a is set in b. For views of
// the same snapshot object taken at different times this is the "each view
// is a subset of any larger views" nesting property.
func ViewSubset[T any](a, b []Entry[T]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].OK && !b[i].OK {
			return false
		}
	}
	return true
}

// ViewsNested reports whether a collection of views forms a chain under
// ViewSubset. Linearizability of the snapshot object implies every set of
// views of one object is nested; the property tests lean on this.
func ViewsNested[T any](views [][]Entry[T]) bool {
	for i := range views {
		for j := range views {
			if !ViewSubset(views[i], views[j]) && !ViewSubset(views[j], views[i]) {
				return false
			}
		}
	}
	return true
}
