package des

import "github.com/oblivious-consensus/conciliator/internal/sim"

// opSync is the session resync after an amnesiac restart, the one
// request that is not a consensus-machine operation.
const opSync sim.FlatOpKind = 255

// message is both RPC request and reply (a reply echoes the request's
// op, opSeq, and inc with the result fields filled in). It is carried by
// value inside events and holds no pointers. A request carries a machine
// op (sim.FlatOp): its argument in val (persona id or value) and key,
// and its object in obj, an index into the server memory's pool that
// the op implies (see sim.FlatMemory). A reply carries the op's
// sim.FlatResult in ok, val and key.
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

// server is the memory node: it owns the shared memory and applies each
// logical operation exactly once, steps being accounted at the client as
// RPC round trips. Clients are stop-and-wait with
// per-process (incarnation, operation-sequence) pairs, so dedup needs
// only one session per process, the last applied pair and its reply: a
// request with the same sequence is a retransmission (re-send the cached
// reply — the first reply may have been lost), anything older is a stale
// duplicate to drop, and anything newer is new work. Stop-and-wait makes new
// sequences contiguous in the steady state; a gap can only appear after
// this server lost its own dedup cache in an amnesiac restart, in which
// case accepting the gap is what re-admits the (still live) clients. A
// lower incarnation is a dead process's straggler and is fenced; a
// higher one resets the session.
type server struct {
	mem      sim.FlatMemory
	sessions []session // per-process dedup state, indexed by pid
	applied  int64
	dupDrops int64

	// down marks a crash window: the run loop discards deliveries
	// addressed to a down server, so in-flight RPCs time out at the
	// clients and the retry policy takes over.
	down  bool
	wipes int64
}

// session is one process's dedup state: its incarnation, the sequence
// number of the last operation applied for it, and that operation's
// reply. It is 40 bytes, and a request reads only its sender's.
type session struct {
	inc, seq uint32
	rep      message
}

func newServer(n int) *server {
	return &server{sessions: make([]session, n)}
}

// handle processes one incoming request and routes the reply back
// through the network.
func (s *server) handle(q *eventQueue, nw *network, now int64, m message) {
	ss := &s.sessions[m.from]
	switch {
	case m.inc < ss.inc:
		// A dead incarnation's straggler; fence it.
		s.dupDrops++
		return
	case m.inc > ss.inc:
		// A new incarnation announces itself: the old session's dedup
		// state is history.
		*ss = session{inc: m.inc}
	}
	switch {
	case m.opSeq == ss.seq:
		// Retransmitted request whose reply may have been lost.
		s.dupDrops++
		nw.send(q, now, serverID, m.from, ss.rep)
		return
	case m.opSeq < ss.seq:
		// A duplicate older than the client's current operation; its
		// reply was already consumed. Drop.
		s.dupDrops++
		return
	}
	ss.seq = m.opSeq
	ss.rep = s.apply(m)
	s.applied++
	nw.send(q, now, serverID, m.from, ss.rep)
}

// apply executes one logical operation against the shared memory.
func (s *server) apply(m message) message {
	r := message{op: m.op, from: m.from, opSeq: m.opSeq, inc: m.inc, obj: m.obj}
	if m.op == opSync {
		// Session re-establishment after an amnesiac restart: the
		// incarnation bump in handle already reset the dedup slot; the
		// ack is the client's cue that the server will accept its fresh
		// sequence numbers.
		r.ok = true
		return r
	}
	res := s.mem.Apply(sim.FlatOp{Kind: m.op, Obj: m.obj, Arg: m.val, Key: m.key})
	r.ok, r.val, r.key = res.OK, res.Val, res.Key
	return r
}

// wipe is an amnesiac server restart: every register and the dedup cache
// are lost. Wiping breaks the atomic shared-memory model — the safety
// monitors observing across the wipe are expected to fire; that is the
// finding, not a bug.
func (s *server) wipe() {
	s.mem.Reset()
	clear(s.sessions)
	s.wipes++
}
