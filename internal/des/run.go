package des

import (
	"fmt"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/fault"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// proc is one process's RPC, retry and chaos state. Its protocol state
// is its cursor in the runner's consensus machine, indexed by id.
type proc struct {
	id  int32
	rng xrand.Rand

	// Stop-and-wait RPC state.
	opSeq   uint32
	await   bool
	req     message
	rto     int64
	steps   int64
	retrans int64

	// Chaos state. seedBase is the seed incarnation 0's RNG was reseeded
	// from; incarnation k > 0 reseeds from its named fork keyed by k, so
	// amnesiac restarts draw fresh-but-replayable protocol randomness.
	inc       uint32
	down      bool
	gaveUp    bool
	opRetries int
	seedBase  uint64
	resyncs   int64
	// syncing: a fresh amnesiac incarnation is re-establishing its RPC
	// session with the memory server before it resumes the machine.
	syncing bool

	decided bool
}

// runner holds one run's entire state.
type runner struct {
	cfg     Config
	q       eventQueue
	net     *network
	srv     *server
	mon     *fault.Monitor
	procs   []proc
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
	// rather than full-width uint64: the monitored max register's
	// linearizability checker needs keys that fit in int64, and the
	// bounded range (about 6e11 at n=100k) does with room to spare.
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
		srv:      newServer(cfg.N, mon),
		mon:      mon,
		procs:    make([]proc, cfg.N),
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
	for i := range d.procs {
		p := &d.procs[i]
		p.id = int32(i)
		p.seedBase = procRng.SeedNamed(uint64(i))
		p.rng.Reseed(p.seedBase)
	}
	// All processes wake at virtual time zero; their first requests get
	// distinct latencies, which staggers them naturally.
	for i := range d.procs {
		m.Init(i, &d.procs[i].rng)
		d.issue(&d.procs[i])
	}
	// Crash events enter the queue after the initial sends, so a crash
	// at t=0 still lands after every process issued its first request —
	// deterministically, via the (at, seq) tiebreak.
	for _, e := range chaos {
		d.q.push(e.At.Nanoseconds(), e.Target, evCrash,
			message{key: uint64(e.Down.Nanoseconds()), val: int32(e.Restart)})
	}

	for d.decided+d.gaveUp < cfg.N {
		ev, ok := d.q.pop()
		if !ok {
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
				d.onReply(p, ev.msg)
			}
		case evTimer:
			p := &d.procs[ev.to]
			// Timers die with the incarnation that armed them, and a
			// down or resigned process keeps no timers alive.
			if p.down || p.gaveUp || ev.msg.inc != p.inc {
				break
			}
			d.onTimer(p, ev.msg)
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

	d.srv.finish()
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
	for i := range d.procs {
		res.Retransmits += d.procs[i].retrans
		res.Resyncs += d.procs[i].resyncs
	}
	if res.AllDecided {
		res.Decision = outs[0]
	}
	return res, err
}

// issue sends p's next machine operation to the memory server.
func (d *runner) issue(p *proc) {
	op := d.m.NextOp(int(p.id))
	d.sendReq(p, message{op: op.Kind, obj: op.Obj, val: op.Arg, key: op.Key})
}

// sendReq issues a new stop-and-wait request from p (charging one step,
// except for session resyncs, which are bookkeeping rather than protocol
// work) and arms the retransmission timer when messages can be lost.
func (d *runner) sendReq(p *proc, m message) {
	p.opSeq++
	m.from = p.id
	m.opSeq = p.opSeq
	m.inc = p.inc
	p.req = m
	p.await = true
	p.opRetries = 0
	if m.op != opSync {
		p.steps++
	}
	d.net.send(&d.q, d.now, p.id, serverID, m)
	if d.timers {
		p.rto = d.rto0
		d.q.push(d.now+d.jittered(p.rto), p.id, evTimer, message{opSeq: p.opSeq, inc: p.inc})
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

// onTimer handles a retransmission timer: if the guarded operation is
// still outstanding, resend and back off; otherwise the timer is stale.
// A bounded retry policy gives up here instead of retrying forever.
func (d *runner) onTimer(p *proc, m message) {
	if !p.await || p.req.opSeq != m.opSeq {
		return
	}
	if d.maxRetries > 0 && p.opRetries >= d.maxRetries {
		d.giveUp(p)
		return
	}
	p.opRetries++
	p.retrans++
	d.net.send(&d.q, d.now, p.id, serverID, p.req)
	if p.rto < d.rtoCap {
		p.rto = int64(float64(p.rto) * d.backoff)
		if p.rto > d.rtoCap {
			p.rto = d.rtoCap
		}
	}
	d.q.push(d.now+d.jittered(p.rto), p.id, evTimer, message{opSeq: p.req.opSeq, inc: p.inc})
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
			p.retrans++
			p.rto = d.rto0
			p.opRetries = 0
			d.net.send(&d.q, d.now, p.id, serverID, p.req)
			d.q.push(d.now+d.jittered(p.rto), p.id, evTimer, message{opSeq: p.req.opSeq, inc: p.inc})
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
	p.resyncs++
	xrand.New(p.seedBase).ForkNamedInto(uint64(p.inc), &p.rng)
	d.m.Init(int(p.id), &p.rng)
	p.opSeq = 0
	p.await = false
	p.opRetries = 0
	p.syncing = true
	d.sendReq(p, message{op: opSync})
}

// onReply delivers the reply p is waiting for to its machine cursor
// and issues the next operation. Stale or duplicate replies (sequence or
// incarnation mismatch) are ignored: the machine only ever moves on the
// reply it is waiting for, so an op a dead incarnation sent before an
// amnesiac restart changes shared memory but not the new incarnation.
func (d *runner) onReply(p *proc, r message) {
	if !p.await || r.opSeq != p.opSeq || r.inc != p.inc || p.decided || p.gaveUp {
		return
	}
	p.await = false
	if p.syncing {
		// Session re-established; run the restarted machine.
		p.syncing = false
		d.issue(p)
		return
	}
	pid := int(p.id)
	ph := d.m.Phase(pid)
	switch d.m.Deliver(pid, sim.FlatResult{OK: r.ok, Val: r.val, Key: r.key}, &p.rng) {
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
		d.mon.Report("nontermination", "process %d exceeded the phase budget %d", p.id, d.cfg.MaxPhases)
		d.overflow = fmt.Errorf("des: process %d exceeded the phase budget %d without committing", p.id, d.cfg.MaxPhases)
		return
	}
	d.issue(p)
}
