package des

import (
	"fmt"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// proc is the hot part of one process's state: what an event addressed
// to the process reads, at most 40 bytes. Its protocol state is its
// cursor in the runner's consensus machine and the rest lives in
// procCold, both indexed by the process id. The outstanding request is
// not stored: it is rebuilt when it must be retransmitted (see request).
type proc struct {
	// Stop-and-wait RPC state. opSeq and inc identify the outstanding
	// request; an amnesiac restart bumps the incarnation inc.
	rto       int64
	steps     int64
	opSeq     uint32
	inc       uint32
	opRetries int32
	await     bool
	down      bool
	gaveUp    bool
	// syncing: a fresh amnesiac incarnation is re-establishing its RPC
	// session with the memory server before it resumes the machine.
	syncing bool
	decided bool
}

// procCold is the part of a process's state that the per-operation path
// does not read: its protocol RNG, which only a phase change or a restart
// draws from or reseeds, and counters summed once into the Result.
type procCold struct {
	rng xrand.Rand
	// seedBase is the seed incarnation 0's RNG was reseeded from;
	// incarnation k > 0 reseeds from its named fork keyed by k, so
	// amnesiac restarts draw fresh-but-replayable protocol randomness.
	seedBase uint64
	retrans  int64
	resyncs  int64
}

// runner holds one run's entire state.
type runner struct {
	cfg     Config
	q       eventQueue
	net     *network
	srv     *server
	mon     *fault.Monitor
	procs   []proc
	cold    []procCold
	m       *consensus.FlatConsensus
	now     int64
	decided int
	events  int64

	// Resolved retry policy.
	rto0       int64
	rtoCap     int64
	backoff    float64
	jitter     float64
	maxRetries int
	retryRng   *xrand.Rand
	// timers gates the retransmission machinery: armed whenever the
	// network can lose messages or the chaos layer can drop them (a
	// down node discards deliveries).
	timers bool

	// Chaos accounting.
	gaveUp     int
	crashes    int64
	restarts   int64
	chaosDrops int64

	// overflow is set when a process exceeds the phase budget; the main
	// loop returns it as the run error.
	overflow error
}

// Run executes one discrete-event consensus run and returns its Result.
// The error is non-nil when the run failed to terminate inside its event
// budget (also recorded as a nontermination violation); the Result is
// meaningful either way.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}

	root := xrand.New(cfg.Seed)
	// Disjoint named forks: the network's stream is independent of every
	// process's protocol randomness, keeping the adversary oblivious;
	// retry jitter and the chaos schedule draw from their own forks for
	// the same reason. Draw order here must match Config.ChaosSchedule.
	netRng := root.ForkNamed(0x4e57)   // "NET"
	procRng := root.ForkNamed(0xa190)  // per-process seed stream
	retryRng := root.ForkNamed(0x4a77) // retry-timer jitter
	chaosRng := root.ForkNamed(0xc405) // crash schedule materialization

	mon := fault.NewMonitor()
	// Priorities use the paper's bounded range ceil(R n^2 / epsilon)
	// rather than full-width uint64, as every pinned DES result and
	// artifact was drawn with it.
	m, err := consensus.NewFlat(cfg.N, consensus.FlatConfig{
		Conciliator:        cfg.Protocol,
		AC:                 consensus.ACRegister,
		Epsilon:            cfg.Epsilon,
		MaxPhases:          cfg.MaxPhases,
		PaperPriorityRange: true,
	})
	if err != nil {
		return Result{}, err
	}

	d := &runner{
		cfg:      cfg,
		net:      newNetwork(cfg.Net, cfg.N, netRng),
		srv:      newServer(cfg.N),
		mon:      mon,
		procs:    make([]proc, cfg.N),
		cold:     make([]procCold, cfg.N),
		m:        m,
		retryRng: retryRng,
	}
	d.q.setTick(cfg.Net.Latency.Mean.Nanoseconds())
	d.q.reserve(cfg.N)
	d.rto0 = cfg.Retry.RTO.Nanoseconds()
	if d.rto0 <= 0 {
		d.rto0 = 8 * cfg.Net.Latency.Mean.Nanoseconds()
		if d.rto0 < 1000 {
			d.rto0 = 1000
		}
	}
	d.rtoCap = cfg.Retry.Cap.Nanoseconds()
	if d.rtoCap <= 0 {
		d.rtoCap = 64 * d.rto0
	}
	d.backoff = cfg.Retry.Backoff
	if d.backoff == 0 {
		d.backoff = 2
	}
	d.jitter = cfg.Retry.Jitter
	d.maxRetries = cfg.Retry.MaxRetries
	chaos := materializeChaos(cfg.Chaos, cfg.N, chaosRng)
	d.timers = d.net.lossy || len(chaos) > 0

	inputs := cfg.Inputs
	if inputs == nil {
		inputs = make([]int, cfg.N)
		for i := range inputs {
			inputs[i] = i % 2
		}
	}
	in64 := make([]int64, cfg.N)
	for i, v := range inputs {
		in64[i] = int64(v)
	}
	m.Reset(in64)
	for i := range d.cold {
		c := &d.cold[i]
		c.seedBase = procRng.SeedNamed(uint64(i))
		c.rng.Reseed(c.seedBase)
	}
	// All processes wake at virtual time zero; their first requests get
	// distinct latencies, which staggers them naturally.
	for i := range d.procs {
		m.Init(i, &d.cold[i].rng)
		d.sendReq(int32(i), &d.procs[i], false)
	}
	// Crash events enter the queue after the initial sends, so a crash
	// at t=0 still lands after every process issued its first request —
	// deterministically, via the (at, seq) tiebreak.
	for _, e := range chaos {
		d.q.push(e.At.Nanoseconds(), e.Target, evCrash,
			message{key: uint64(e.Down.Nanoseconds()), val: int32(e.Restart)})
	}

	for d.decided+d.gaveUp < cfg.N {
		ev := d.q.pop()
		if ev == nil {
			pending := cfg.N - d.decided - d.gaveUp
			mon.Report("nontermination", "event queue drained with %d of %d processes undecided", pending, cfg.N)
			err = fmt.Errorf("des: deadlock: queue empty with %d processes undecided", pending)
			break
		}
		d.events++
		if d.events > cfg.MaxEvents {
			pending := cfg.N - d.decided - d.gaveUp
			mon.Report("nontermination", "event budget %d exhausted with %d of %d processes undecided", cfg.MaxEvents, pending, cfg.N)
			err = fmt.Errorf("des: event budget %d exhausted with %d processes undecided", cfg.MaxEvents, pending)
			break
		}
		d.now = ev.at
		switch ev.kind {
		case evDeliver:
			if ev.to == serverID {
				if d.srv.down {
					d.chaosDrops++
					break
				}
				d.srv.handle(&d.q, d.net, d.now, ev.msg)
			} else {
				p := &d.procs[ev.to]
				if p.down {
					d.chaosDrops++
					break
				}
				d.onReply(ev.to, p, &ev.msg)
			}
		case evTimer:
			p := &d.procs[ev.to]
			// Timers die with the incarnation that armed them, and a
			// down or resigned process keeps no timers alive.
			if p.down || p.gaveUp || ev.msg.inc != p.inc {
				break
			}
			d.onTimer(ev.to, p, ev.msg.opSeq)
		case evCrash:
			d.onCrash(ev.to, ev.msg)
		case evRestart:
			d.onRestart(ev.to, ev.msg)
		}
		if d.overflow != nil {
			err = d.overflow
			break
		}
	}

	outs := make([]int, cfg.N)
	finished := make([]bool, cfg.N)
	steps := make([]int64, cfg.N)
	outcomes := make([]ProcOutcome, cfg.N)
	phases := 0
	for i := range d.procs {
		p := &d.procs[i]
		outs[i], finished[i], steps[i] = int(m.Output(i)), p.decided, p.steps
		switch {
		case p.decided:
			outcomes[i] = OutcomeDecided
		case p.gaveUp:
			outcomes[i] = OutcomeGaveUp
		default:
			outcomes[i] = OutcomeUndecided
		}
		if ph := m.Phase(i) + 1; ph > phases {
			phases = ph
		}
	}
	mon.CheckOutcome(inputs, outs, finished)

	res := Result{
		N:             cfg.N,
		Protocol:      cfg.Protocol,
		Rounds:        m.Rounds(),
		AllDecided:    d.decided == cfg.N,
		Phases:        phases,
		Steps:         steps,
		MsgsSent:      d.net.sent,
		MsgsDelivered: d.net.delivered,
		MsgsDropped:   d.net.dropped,
		MsgsBlocked:   d.net.blocked,
		VirtualTime:   time.Duration(d.now) * time.Nanosecond,
		Events:        d.events,
		Crashes:       d.crashes,
		Restarts:      d.restarts,
		Wipes:         d.srv.wipes,
		ChaosDrops:    d.chaosDrops,
		GaveUp:        d.gaveUp,
		Outcomes:      outcomes,
		OpsApplied:    d.srv.applied,
		DupDrops:      d.srv.dupDrops,
		Violations:    mon.Finish(),
	}
	for i := range d.cold {
		res.Retransmits += d.cold[i].retrans
		res.Resyncs += d.cold[i].resyncs
	}
	if res.AllDecided {
		res.Decision = outs[0]
	}
	return res, err
}

// request builds process id's outstanding request: the session resync
// while p is syncing, its machine's next operation otherwise. A
// retransmission rebuilds the request it repeats from the same state: a
// process's machine cursor moves only in Deliver, which runs on the
// reply that ends the request, and syncing, opSeq and inc change only
// when a new request is sent, so between a send and its reply the
// request built here is the one that was sent.
func (d *runner) request(id int32, p *proc) message {
	m := message{op: opSync, from: id, opSeq: p.opSeq, inc: p.inc}
	if !p.syncing {
		op := d.m.NextOp(int(id))
		m.op, m.obj, m.val, m.key = op.Kind, op.Obj, op.Arg, op.Key
	}
	return m
}

// sendReq issues a new stop-and-wait request from process id — its next
// machine operation, or the session resync when syncing — charging one
// step except for the resync, which is bookkeeping rather than protocol
// work, and arms the retransmission timer when messages can be lost.
func (d *runner) sendReq(id int32, p *proc, syncing bool) {
	p.opSeq++
	p.syncing = syncing
	p.await = true
	p.opRetries = 0
	if !syncing {
		p.steps++
	}
	d.net.send(&d.q, d.now, id, serverID, d.request(id, p))
	if d.timers {
		p.rto = d.rto0
		d.q.push(d.now+d.jittered(p.rto), id, evTimer, message{opSeq: p.opSeq, inc: p.inc})
	}
}

// jittered spreads a timeout by up to jitter*rto of extra delay, drawn
// from the dedicated retry fork. Jitter 0 draws nothing, so configs
// without it replay byte-identically to builds that predate it.
func (d *runner) jittered(rto int64) int64 {
	if d.jitter > 0 {
		rto += int64(float64(rto) * d.jitter * d.retryRng.Float64())
	}
	return rto
}

// onTimer handles a retransmission timer for operation opSeq of process
// id: if that operation is still outstanding, resend and back off;
// otherwise the timer is stale. A bounded retry policy gives up here
// instead of retrying forever.
func (d *runner) onTimer(id int32, p *proc, opSeq uint32) {
	if !p.await || p.opSeq != opSeq {
		return
	}
	if d.maxRetries > 0 && int(p.opRetries) >= d.maxRetries {
		d.giveUp(p)
		return
	}
	p.opRetries++
	d.cold[id].retrans++
	d.net.send(&d.q, d.now, id, serverID, d.request(id, p))
	if p.rto < d.rtoCap {
		p.rto = int64(float64(p.rto) * d.backoff)
		if p.rto > d.rtoCap {
			p.rto = d.rtoCap
		}
	}
	d.q.push(d.now+d.jittered(p.rto), id, evTimer, message{opSeq: p.opSeq, inc: p.inc})
}

// giveUp retires a process whose retry budget is exhausted: it stops
// participating and is reported in Result.Outcomes instead of hanging
// the event loop. Consensus safety is unaffected — a silent process is
// indistinguishable from a slow one.
func (d *runner) giveUp(p *proc) {
	p.gaveUp = true
	p.await = false
	d.gaveUp++
}

// onCrash takes a node down. Crashes aimed at an already-down or
// resigned node are ignored (no restart is scheduled), which keeps
// overlapping schedule entries well-defined.
func (d *runner) onCrash(to int32, m message) {
	down := int64(m.key)
	if to == serverID {
		if d.srv.down {
			return
		}
		d.srv.down = true
		d.crashes++
		d.q.push(d.now+down, to, evRestart, message{val: m.val})
		return
	}
	p := &d.procs[to]
	if p.down || p.gaveUp || p.decided {
		return
	}
	p.down = true
	d.crashes++
	d.q.push(d.now+down, to, evRestart, message{val: m.val})
}

// onRestart brings a node back up. Durable restarts resume from the
// persisted state (the outstanding request is re-sent, since its reply
// may have been discarded during the down window); amnesiac restarts
// lose everything, bump the incarnation, reseed the protocol RNG from
// the incarnation-keyed fork, restart the machine at phase 0, and
// re-enter through an opSync handshake.
func (d *runner) onRestart(to int32, m message) {
	if to == serverID {
		d.srv.down = false
		d.restarts++
		if RestartKind(m.val) == RestartAmnesiac {
			d.srv.wipe()
		}
		return
	}
	p := &d.procs[to]
	if !p.down {
		return
	}
	p.down = false
	d.restarts++
	if RestartKind(m.val) == RestartDurable {
		if !p.decided && p.await {
			// The reply (or request) in flight when we crashed was
			// dropped; retransmit under a fresh timer.
			d.cold[to].retrans++
			p.rto = d.rto0
			p.opRetries = 0
			d.net.send(&d.q, d.now, to, serverID, d.request(to, p))
			d.q.push(d.now+d.jittered(p.rto), to, evTimer, message{opSeq: p.opSeq, inc: p.inc})
		}
		return
	}
	// Amnesiac: all volatile protocol state is gone. A previously decided
	// process forgets its decision and must re-decide (agreement says it
	// can only re-decide the same value — the monitors check exactly that).
	if p.decided {
		p.decided = false
		d.decided--
	}
	p.inc++
	c := &d.cold[to]
	c.resyncs++
	xrand.New(c.seedBase).ForkNamedInto(uint64(p.inc), &c.rng)
	d.m.Init(int(to), &c.rng)
	p.opSeq = 0
	d.sendReq(to, p, true)
}

// onReply delivers the reply p is waiting for to its machine cursor
// and issues the next operation. Stale or duplicate replies (sequence or
// incarnation mismatch) are ignored: the machine only ever moves on the
// reply it is waiting for, so an op a dead incarnation sent before an
// amnesiac restart changes shared memory but not the new incarnation.
func (d *runner) onReply(id int32, p *proc, r *message) {
	if !p.await || r.opSeq != p.opSeq || r.inc != p.inc || p.decided || p.gaveUp {
		return
	}
	p.await = false
	if p.syncing {
		// Session re-established; run the restarted machine.
		d.sendReq(id, p, false)
		return
	}
	pid := int(id)
	ph := d.m.Phase(pid)
	switch d.m.Deliver(pid, sim.FlatResult{OK: r.ok, Val: r.val, Key: r.key}, &d.cold[id].rng) {
	case consensus.Proposing:
		d.mon.ObserveACPropose(ph, pid, int(d.m.Proposal(pid)))
	case consensus.Adopted:
		d.mon.ObserveAC(ph, pid, int(d.m.Proposal(pid)), int(d.m.Output(pid)), false)
	case consensus.Committed:
		d.mon.ObserveAC(ph, pid, int(d.m.Proposal(pid)), int(d.m.Output(pid)), true)
		p.decided = true
		d.decided++
		return
	case consensus.OutOfPhases:
		// The machine's validity valve would decide here; the DES
		// reports the exhausted budget as nontermination instead.
		d.mon.ObserveAC(ph, pid, int(d.m.Proposal(pid)), int(d.m.Output(pid)), false)
		d.mon.Report("nontermination", "process %d exceeded the phase budget %d", id, d.cfg.MaxPhases)
		d.overflow = fmt.Errorf("des: process %d exceeded the phase budget %d without committing", id, d.cfg.MaxPhases)
		return
	}
	d.sendReq(id, p, false)
}
