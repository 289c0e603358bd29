package memory

import "fmt"

// AfekSnapshot is a wait-free atomic snapshot built from single-writer
// registers in the style of Afek, Attiya, Dolev, Gafni, Merritt, and
// Shavit. It exists to demonstrate that the unit-cost Snapshot object the
// paper assumes is constructible from the register primitives of the same
// model — at a cost of O(n) register steps per operation (O(n^2) for a
// scan in the worst case) instead of 1.
//
// Each component register holds the writer's value, a sequence number, and
// the view obtained by an embedded scan performed during the update. A
// scanner repeatedly collects all components; two identical consecutive
// collects form an atomic view (double collect). A scanner that observes
// some writer move twice borrows that writer's embedded view, which is
// guaranteed to have been taken inside the scanner's own interval.
//
// The object has no locking of its own: it inherits whatever
// representation its component registers latch, so under the lock-free
// concurrent substrate the whole construction runs on hardware atomics —
// exactly the wait-free, registers-only algorithm of the original paper.
type AfekSnapshot[T any] struct {
	cells []*Register[afekCell[T]]
}

type afekCell[T any] struct {
	value T
	seq   uint64
	view  []Entry[T]
}

// NewAfekSnapshot returns an n-component register-based snapshot.
func NewAfekSnapshot[T any](n int) *AfekSnapshot[T] {
	s := &AfekSnapshot[T]{cells: make([]*Register[afekCell[T]], n)}
	for i := range s.cells {
		s.cells[i] = NewRegister[afekCell[T]]()
	}
	return s
}

// Components returns the number of components n.
func (s *AfekSnapshot[T]) Components() int { return len(s.cells) }

// Update installs v as component i. Component i must only ever be updated
// by one process at a time (single-writer discipline), which all protocols
// in this repository obey: component i belongs to process i.
func (s *AfekSnapshot[T]) Update(ctx Context, i int, v T) {
	mAfekUpdate.Inc()
	view := s.Scan(ctx)
	old, _ := s.cells[i].Read(ctx)
	s.cells[i].Write(ctx, afekCell[T]{value: v, seq: old.seq + 1, view: view})
}

// Scan returns an atomic view of all components. The afek.scan counter
// includes the scan embedded in every Update; the individual register
// steps land in the register counters.
func (s *AfekSnapshot[T]) Scan(ctx Context) []Entry[T] {
	return s.ScanInto(ctx, nil)
}

// ScanInto is Scan writing the view into buf (grown as needed). The
// double-collect bookkeeping still allocates per scan — this object
// exists to expose the cost gap against the unit-cost Snapshot, not to
// win benchmarks — but the returned view reuses buf's storage.
func (s *AfekSnapshot[T]) ScanInto(ctx Context, buf []Entry[T]) []Entry[T] {
	mAfekScan.Inc()
	n := len(s.cells)
	if cap(buf) < n {
		buf = make([]Entry[T], n)
	} else {
		buf = buf[:n]
	}
	moved := make([]int, n)
	prev := s.collect(ctx)
	for {
		cur := s.collect(ctx)
		if sameSeqs(prev, cur) {
			viewInto(buf, cur)
			return buf
		}
		for i := range cur {
			if cur[i].seq == prev[i].seq {
				continue
			}
			moved[i]++
			if moved[i] >= 2 {
				// Writer i completed an entire update inside our scan, so
				// its embedded view was taken inside our interval and can
				// be returned as our own.
				copy(buf, cur[i].view)
				return buf
			}
		}
		prev = cur
	}
}

func (s *AfekSnapshot[T]) collect(ctx Context) []afekCell[T] {
	out := make([]afekCell[T], len(s.cells))
	for i, c := range s.cells {
		out[i], _ = c.Read(ctx)
	}
	return out
}

func sameSeqs[T any](a, b []afekCell[T]) bool {
	for i := range a {
		if a[i].seq != b[i].seq {
			return false
		}
	}
	return true
}

func viewInto[T any](out []Entry[T], cells []afekCell[T]) {
	for i, c := range cells {
		if c.seq > 0 {
			out[i] = Entry[T]{Value: c.value, OK: true}
		} else {
			out[i] = Entry[T]{}
		}
	}
}

// SnapshotObject is the interface shared by the unit-cost Snapshot and the
// register-based AfekSnapshot, letting Algorithm 1 run on either substrate
// (the unit-cost model of the paper, or an all-registers model to expose
// the cost gap).
type SnapshotObject[T any] interface {
	Components() int
	Update(ctx Context, i int, v T)
	Scan(ctx Context) []Entry[T]
	ScanInto(ctx Context, buf []Entry[T]) []Entry[T]
}

var (
	_ SnapshotObject[int] = (*Snapshot[int])(nil)
	_ SnapshotObject[int] = (*AfekSnapshot[int])(nil)
)

// String aids debugging of snapshot entries in traces.
func (e Entry[T]) String() string {
	if !e.OK {
		return "⊥"
	}
	return fmt.Sprintf("%v", e.Value)
}
