package des

import (
	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/sim"
)

// opSync is the session resync after an amnesiac restart, the one
// request that is not a consensus-machine operation.
const opSync sim.FlatOpKind = 255

// message is both RPC request and reply (a reply echoes the request's
// op, opSeq, and inc with the result fields filled in). It is carried by
// value inside events and holds no pointers. A request carries a machine
// op (sim.FlatOp): its argument in val (persona id or value) and key,
// and its object in obj, an index into one of three server pools, the
// pool implied by the op:
//
//   - persona registers (sifter round registers),
//   - max registers (priority-max round registers), and
//   - value registers (adopt-commit flags, clean, dirty — presence
//     doubles as the flag bit).
//
// A reply carries the op's sim.FlatResult in ok, val and key.
type message struct {
	op    sim.FlatOpKind
	ok    bool
	from  int32 // requesting process id
	opSeq uint32
	// inc is the sender's incarnation number: an amnesiac restart bumps
	// it, so the server can fence the dead incarnation's stragglers and
	// the client can ignore stale replies and timers.
	inc uint32
	obj int32
	val int32
	key uint64
}

// opCtx is the memory.Context under which the server applies operations:
// free (steps are accounted at the client as RPC round trips), exclusive
// (the engine is single-threaded, so the objects' direct representation
// is safe), and carrying the originating process id so the fault
// monitors attribute observations correctly. The server keeps one per
// process and passes a pointer, which converts to the interface without
// allocating.
type opCtx struct{ pid int }

func (opCtx) Step()           {}
func (opCtx) Exclusive() bool { return true }
func (c opCtx) ID() int       { return c.pid }

// server is the memory node: it owns every shared object and applies
// each logical operation exactly once. Clients are stop-and-wait with
// per-process (incarnation, operation-sequence) pairs, so dedup needs
// only the last applied pair and its reply per process: a request with
// the same sequence is a retransmission (re-send the cached reply — the
// first reply may have been lost), anything older is a stale duplicate
// to drop, and anything newer is new work. Stop-and-wait makes new
// sequences contiguous in the steady state; a gap can only appear after
// this server lost its own dedup cache in an amnesiac restart, in which
// case accepting the gap is what re-admits the (still live) clients. A
// lower incarnation is a dead process's straggler and is fenced; a
// higher one resets the session.
type server struct {
	persRegs []*memory.Register[int32]
	maxRegs  []*fault.MonitoredMaxer[int32]
	intRegs  []*memory.Register[int32]
	mon      *fault.Monitor
	ctxs     []opCtx // per-process contexts, indexed by pid

	lastInc  []uint32
	lastSeq  []uint32
	lastRep  []message
	applied  int64
	dupDrops int64

	// down marks a crash window: the run loop discards deliveries
	// addressed to a down server, so in-flight RPCs time out at the
	// clients and the retry policy takes over.
	down  bool
	wipes int64
}

func newServer(n int, mon *fault.Monitor) *server {
	ctxs := make([]opCtx, n)
	for i := range ctxs {
		ctxs[i].pid = i
	}
	return &server{
		mon:     mon,
		ctxs:    ctxs,
		lastInc: make([]uint32, n),
		lastSeq: make([]uint32, n),
		lastRep: make([]message, n),
	}
}

// object returns object i of pool, growing the pool with fresh objects
// to hold it.
func object[T any](pool *[]T, i int32, fresh func() T) T {
	for int(i) >= len(*pool) {
		*pool = append(*pool, fresh())
	}
	return (*pool)[i]
}

func (s *server) maxReg(i int32) *fault.MonitoredMaxer[int32] {
	return object(&s.maxRegs, i, func() *fault.MonitoredMaxer[int32] {
		return fault.NewMonitoredMaxer[int32](memory.NewMaxRegister[int32](), s.mon)
	})
}

// handle processes one incoming request and routes the reply back
// through the network.
func (s *server) handle(q *eventQueue, nw *network, now int64, m message) {
	switch {
	case m.inc < s.lastInc[m.from]:
		// A dead incarnation's straggler; fence it.
		s.dupDrops++
		return
	case m.inc > s.lastInc[m.from]:
		// A new incarnation announces itself: the old session's dedup
		// state is history.
		s.lastInc[m.from] = m.inc
		s.lastSeq[m.from] = 0
		s.lastRep[m.from] = message{}
	}
	last := s.lastSeq[m.from]
	switch {
	case m.opSeq == last:
		// Retransmitted request whose reply may have been lost.
		s.dupDrops++
		nw.send(q, now, serverID, m.from, s.lastRep[m.from])
		return
	case m.opSeq < last:
		// A duplicate older than the client's current operation; its
		// reply was already consumed. Drop.
		s.dupDrops++
		return
	}
	reply := s.apply(m)
	s.lastSeq[m.from] = m.opSeq
	s.lastRep[m.from] = reply
	s.applied++
	nw.send(q, now, serverID, m.from, reply)
}

// apply executes one logical operation against the shared objects.
func (s *server) apply(m message) message {
	ctx := &s.ctxs[m.from]
	r := message{op: m.op, from: m.from, opSeq: m.opSeq, inc: m.inc, obj: m.obj}
	switch m.op {
	case sim.OpWriteP:
		object(&s.persRegs, m.obj, memory.NewRegister[int32]).Write(ctx, m.val)
	case sim.OpReadP:
		r.val, r.ok = object(&s.persRegs, m.obj, memory.NewRegister[int32]).Read(ctx)
	case sim.OpWriteMax:
		s.maxReg(m.obj).WriteMax(ctx, m.key, m.val)
	case sim.OpReadMax:
		r.key, r.val, r.ok = s.maxReg(m.obj).ReadMax(ctx)
	case sim.OpWriteV:
		object(&s.intRegs, m.obj, memory.NewRegister[int32]).Write(ctx, m.val)
	case sim.OpReadV:
		r.val, r.ok = object(&s.intRegs, m.obj, memory.NewRegister[int32]).Read(ctx)
	case opSync:
		// Session re-establishment after an amnesiac restart: the
		// incarnation bump above already reset the dedup slot; the ack
		// is the client's cue that the server will accept its fresh
		// sequence numbers.
		r.ok = true
	}
	return r
}

// wipe is an amnesiac server restart: every register and the dedup cache
// are lost. The monitored max registers' recorded histories are checked
// first so pre-wipe linearizability findings are not discarded with the
// objects. Wiping breaks the atomic shared-memory model — the safety
// monitors observing across the wipe are expected to fire; that is the
// finding, not a bug.
func (s *server) wipe() {
	for _, m := range s.maxRegs {
		m.Finish()
	}
	s.persRegs, s.maxRegs, s.intRegs = nil, nil, nil
	for i := range s.lastSeq {
		s.lastInc[i], s.lastSeq[i], s.lastRep[i] = 0, 0, message{}
	}
	s.wipes++
}

// finish runs the per-object linearizability checks of the monitored max
// registers.
func (s *server) finish() {
	for _, m := range s.maxRegs {
		m.Finish()
	}
}
