package memory

import "sync/atomic"

// Maxer is a max register with an attached payload: WriteMax installs
// (key, payload) and ReadMax returns the payload carrying the largest key
// written so far. Footnote 1 of the paper observes that Algorithm 1 only
// ever uses its snapshots to find the maximum-priority persona, so a max
// register suffices; both implementations below satisfy this interface so
// the conciliator can run on either.
type Maxer[T any] interface {
	// WriteMax installs payload under key; the register retains the entry
	// with the largest key seen.
	WriteMax(ctx Context, key uint64, payload T)
	// ReadMax returns the entry with the largest key written so far, and
	// false if nothing has been written.
	ReadMax(ctx Context) (uint64, T, bool)
}

// MaxRegister is the unit-cost max register: one step per operation,
// linearizable by construction. It is the max-register analogue of the
// unit-cost Snapshot.
//
// Lock-free representation: lf points to the immutable (key, payload)
// maximum, nil meaning empty. WriteMax runs the classic atomic-max CAS
// loop — reload, give up if the current maximum already dominates,
// otherwise try to install — which is linearizable because a successful
// CAS both observes the old maximum and installs the new one at a single
// point, and a write that gives up linearizes at its dominating load.
type MaxRegister[T any] struct {
	rep     repMode
	lf      atomic.Pointer[maxState[T]]
	key     uint64
	payload T
	set     bool
}

var _ Maxer[int] = (*MaxRegister[int])(nil)

// NewMaxRegister returns an empty unit-cost max register.
func NewMaxRegister[T any]() *MaxRegister[T] {
	return &MaxRegister[T]{}
}

// maxState is the post-write state of a MaxRegister as recorded in
// fault histories, so a stale ReadMax can observe an earlier — possibly
// smaller — maximum.
type maxState[T any] struct {
	key     uint64
	payload T
}

// WriteMax implements Maxer.
func (m *MaxRegister[T]) WriteMax(ctx Context, key uint64, payload T) {
	ctx.Step()
	if m.rep.of(ctx) == repLockFree {
		st := &maxState[T]{key: key, payload: payload}
		for {
			cur := m.lf.Load()
			if cur != nil && cur.key >= key {
				// The current maximum already dominates (ties keep the
				// incumbent payload, matching the direct path's key >
				// m.key test); this write linearizes here as a no-op.
				break
			}
			if m.lf.CompareAndSwap(cur, st) {
				break
			}
			mMaxCAS.Inc()
		}
	} else {
		if !m.set || key > m.key {
			m.key, m.payload, m.set = key, payload, true
		}
		if f := asFaulter(ctx); f != nil {
			f.FaultOnWrite(m, maxState[T]{key: m.key, payload: m.payload})
		}
	}
	mMaxWrite.Inc()
}

// ReadMax implements Maxer.
func (m *MaxRegister[T]) ReadMax(ctx Context) (uint64, T, bool) {
	ctx.Step()
	var (
		k  uint64
		p  T
		ok bool
	)
	if m.rep.of(ctx) == repLockFree {
		if st := m.lf.Load(); st != nil {
			k, p, ok = st.key, st.payload, true
		}
	} else {
		k, p, ok = m.key, m.payload, m.set
		if f := asFaulter(ctx); f != nil {
			if stale, hit := f.FaultOnRead(m); hit {
				// A nil stale value reads as never written.
				var st maxState[T]
				st, ok = stale.(maxState[T])
				k, p = st.key, st.payload
			}
		}
	}
	mMaxRead.Inc()
	return k, p, ok
}

// TreeMaxRegister is the Aspnes–Attiya–Censor-Hillel max register built
// recursively from ordinary registers: a k-bit max register is a switch
// register plus two (k-1)-bit max registers for the low and high halves of
// the key space. Writes of high-half keys recurse right and then set the
// switch; writes of low-half keys first read the switch and are dropped if
// a high-half write has already landed (the low write can no longer affect
// the maximum). Reads follow the switch. Each operation costs O(k)
// register steps, illustrating what the "unit-cost" assumption buys.
//
// Keys must be < 2^bits. Payloads ride along to the leaves.
type TreeMaxRegister[T any] struct {
	bits int
	root *maxNode[T]
}

var _ Maxer[int] = (*TreeMaxRegister[int])(nil)

type maxNode[T any] struct {
	// leaf is non-nil at depth 0 and holds the payload for the single key
	// this leaf represents.
	leaf *Register[T]

	// Internal node state: high-half switch plus lazily created children.
	// Child slots are atomic pointers so node creation — bookkeeping, not
	// a modeled memory operation — is lock-free in every mode: losers of
	// the creation CAS adopt the winner's node.
	swtch *Register[struct{}]
	left  atomic.Pointer[maxNode[T]]
	right atomic.Pointer[maxNode[T]]
}

// NewTreeMaxRegister returns a register-based max register for keys in
// [0, 2^bits). bits must be in [1, 63].
func NewTreeMaxRegister[T any](bits int) *TreeMaxRegister[T] {
	if bits < 1 || bits > 63 {
		panic("memory: TreeMaxRegister bits out of range [1, 63]")
	}
	return &TreeMaxRegister[T]{bits: bits, root: newMaxNode[T](bits)}
}

func newMaxNode[T any](depth int) *maxNode[T] {
	if depth == 0 {
		return &maxNode[T]{leaf: NewRegister[T]()}
	}
	// Children are created lazily only in principle; we allocate eagerly
	// for depths that are actually reached, which writeMax ensures by
	// construction. Eager allocation of the full tree would be 2^bits
	// nodes, so children are built on first touch below.
	return &maxNode[T]{swtch: NewRegister[struct{}]()}
}

// Bits returns the key width.
func (t *TreeMaxRegister[T]) Bits() int { return t.bits }

// WriteMax implements Maxer. It costs O(bits) register operations. The
// treemax.write counter counts logical operations; the underlying
// register steps land in the register counters.
func (t *TreeMaxRegister[T]) WriteMax(ctx Context, key uint64, payload T) {
	if key >= 1<<uint(t.bits) {
		panic("memory: TreeMaxRegister key out of range")
	}
	mTreeWrite.Inc()
	t.root.writeMax(ctx, t.bits, key, payload)
}

// ReadMax implements Maxer. It costs O(bits) register operations; see
// WriteMax for how the operation is metered.
func (t *TreeMaxRegister[T]) ReadMax(ctx Context) (uint64, T, bool) {
	mTreeRead.Inc()
	return t.root.readMax(ctx, t.bits)
}

func (n *maxNode[T]) writeMax(ctx Context, depth int, key uint64, payload T) {
	if depth == 0 {
		n.leaf.Write(ctx, payload)
		return
	}
	half := uint64(1) << uint(depth-1)
	if key >= half {
		child(&n.right, depth-1).writeMax(ctx, depth-1, key-half, payload)
		n.swtch.Write(ctx, struct{}{})
		return
	}
	if _, high := n.swtch.Read(ctx); high {
		// A high-half value is already present; this write cannot be the
		// maximum, so it may be dropped without violating linearizability.
		return
	}
	child(&n.left, depth-1).writeMax(ctx, depth-1, key, payload)
}

func (n *maxNode[T]) readMax(ctx Context, depth int) (uint64, T, bool) {
	if depth == 0 {
		v, ok := n.leaf.Read(ctx)
		return 0, v, ok
	}
	half := uint64(1) << uint(depth-1)
	if _, high := n.swtch.Read(ctx); high {
		// The switch is set only after the corresponding right-subtree
		// write completed, so the right subtree is non-empty.
		k, v, ok := child(&n.right, depth-1).readMax(ctx, depth-1)
		return half + k, v, ok
	}
	if n.left.Load() == nil {
		var zero T
		return 0, zero, false
	}
	return child(&n.left, depth-1).readMax(ctx, depth-1)
}

// child returns slot's node, creating it on first use. Lazy creation
// keeps the tree proportional to the number of distinct key prefixes
// written rather than 2^bits. Creation races install exactly one node
// (first CAS wins; losers adopt it), and the atomic slot doubles as the
// publication barrier for the new node's registers.
func child[T any](slot *atomic.Pointer[maxNode[T]], depth int) *maxNode[T] {
	if c := slot.Load(); c != nil {
		return c
	}
	c := newMaxNode[T](depth)
	if slot.CompareAndSwap(nil, c) {
		return c
	}
	return slot.Load()
}
