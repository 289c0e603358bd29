// Package service turns the replicated-state-machine layer into a
// servable consensus-as-a-service node: a KV API in front of S
// independent consensus groups, amortizing agreement cost through
// request batching and pipelining.
//
// Three throughput levers, composed:
//
//   - Batching: each group's proposer workers drain a bounded intake
//     queue and propose one Batch command — many tagged client ops
//     encoded as a single string — into one consensus slot, so k client
//     writes cost one agreement instead of k.
//   - Pipelining: up to W proposer workers per group each own the slot
//     they atomically claimed, so W consensus instances are in flight
//     concurrently. A worker that decides a slot ahead of the next one
//     to apply leaves it in the group's reorder stash; the worker that
//     decides the next slot applies it and every stashed slot that
//     follows it, so state advances strictly in slot order, preserving
//     state-machine determinism, with no goroutine between deciding and
//     applying.
//   - Sharding: a consistent hash of the key routes each op to one of S
//     independent groups, each with its own rsm.Log and KV state, so
//     aggregate throughput scales with S (no cross-group coordination —
//     and therefore no cross-key transactions across shards).
//
// Every mutating op carries a (client, seq) Tag, making byte-identical
// payloads distinct consensus commands — the service-level twin of
// rsm.Tagged — so retries and duplicates can never be conflated.
//
// The consensus work runs on the concurrent simulator substrate: each
// group owns one sim.RunConcurrent universe of W long-lived processes
// (the proposer workers), with the Go runtime as the weak adversary.
// Reads are served from the group's applied state under a read lock —
// sequentially consistent with respect to the decided log each group has
// applied, not linearizable across groups.
package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/metrics"
	"github.com/oblivious-consensus/conciliator/internal/rsm"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/stats"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// ErrClosed reports a submission to a node that is draining or closed.
var ErrClosed = errors.New("service: node is closed")

// Config parameterizes a Node. The zero value of each field selects the
// documented default.
type Config struct {
	// Shards is the number of independent consensus groups S (default 1).
	Shards int
	// Pipeline is the number of proposer workers — and so the maximum
	// number of in-flight consensus slots — per group (default 2).
	Pipeline int
	// BatchMax caps the ops batched into one consensus slot (default 64).
	BatchMax int
	// QueueDepth bounds each group's intake queue; submitters block when
	// their group's queue is full (default 256).
	QueueDepth int
	// Seed seeds the consensus stack's per-process RNG streams. Group g
	// forks its own named stream, so groups are decorrelated.
	Seed uint64
	// Protocol selects the consensus construction per slot: "register"
	// (default), "snapshot", or "linear".
	Protocol string
}

func (c *Config) defaults() error {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Pipeline == 0 {
		c.Pipeline = 2
	}
	if c.BatchMax == 0 {
		c.BatchMax = 64
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.Shards < 0 || c.Pipeline < 0 || c.BatchMax < 0 || c.QueueDepth < 0 {
		return fmt.Errorf("service: negative config value (shards %d, pipeline %d, batch-max %d, queue %d)",
			c.Shards, c.Pipeline, c.BatchMax, c.QueueDepth)
	}
	if _, err := protocolFactory(c.Protocol); err != nil {
		return err
	}
	return nil
}

func protocolFactory(name string) (func(n int) *consensus.Protocol[string], error) {
	switch name {
	case "", "register":
		return consensus.NewRegister[string], nil
	case "snapshot":
		return consensus.NewSnapshot[string], nil
	case "linear":
		return consensus.NewLinear[string], nil
	default:
		return nil, fmt.Errorf("service: unknown protocol %q (want register, snapshot, or linear)", name)
	}
}

// OpResult reports where a mutating op committed and, for OpInc, the
// post-increment value.
type OpResult struct {
	Shard int
	Slot  int // group-local slot the op's batch committed in
	Value string
	Found bool
}

// pendingOp is one submission waiting for its batch to commit and apply.
// The group fills in res or err before the send on done, so the
// submitter reads them after its receive.
type pendingOp struct {
	tag  Tag
	op   rsm.Op
	res  OpResult
	err  error
	done chan struct{} // buffered 1; sent once the op applied or failed
}

// decidedBatch is one decided slot on its way to being applied: the slot
// a worker claimed, the value consensus decided there, and the
// submissions riding in the proposed batch.
type decidedBatch struct {
	slot     int
	proposed string
	decided  string
	waiters  []*pendingOp
}

// Node is a consensus-as-a-service KV node.
type Node struct {
	cfg    Config
	groups []*group
	seq    atomic.Uint64

	closeMu  sync.RWMutex
	closed   bool
	closeErr error
	wg       sync.WaitGroup
}

type group struct {
	id  int
	cfg *Config
	log *rsm.Log[string]

	intake chan *pendingOp

	nextSlot atomic.Int64

	mu sync.RWMutex
	// stash holds decided slots at or after next, the next slot to
	// apply, until every slot before them has applied.
	stash        map[int]decidedBatch
	next         int
	kv           *rsm.KV
	decidedLog   []string
	appliedSlots int
	appliedOps   int64
	batchSizes   *stats.IntHist
	// halted is set once the slot an apply-invariant break was recorded
	// for comes up: from it on, no batch applies.
	halted bool

	// failure holds the group's first apply-invariant break; it is
	// recorded before the batch's worker takes mu.
	failure atomic.Pointer[error]
	runErr  error

	// shardOps is the per-shard committed-op counter, resolved at Start
	// from the then-installed registry (enable metrics before Start).
	shardOps *metrics.Counter
}

func newGroup(n *Node, gid int, mk func(n int) *consensus.Protocol[string]) *group {
	return &group{
		id:         gid,
		cfg:        &n.cfg,
		log:        rsm.NewLog[string](n.cfg.Pipeline, mk),
		intake:     make(chan *pendingOp, n.cfg.QueueDepth),
		stash:      make(map[int]decidedBatch),
		kv:         rsm.NewKV(),
		batchSizes: stats.NewIntHist(n.cfg.BatchMax + 1),
		shardOps:   metrics.Default().Counter(fmt.Sprintf("service.shard_ops.%d", gid)),
	}
}

// Start validates cfg, spins up the consensus groups, and returns a
// serving node. Callers must Close it to drain and release the workers.
func Start(cfg Config) (*Node, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	mk, _ := protocolFactory(cfg.Protocol)
	n := &Node{cfg: cfg}
	root := xrand.New(cfg.Seed)
	for gid := 0; gid < cfg.Shards; gid++ {
		g := newGroup(n, gid, mk)
		n.groups = append(n.groups, g)
		algSeed := root.SeedNamed(uint64(gid))
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			// The group's proposer workers are W long-lived processes in
			// their own concurrent-simulator universe; RunConcurrent
			// returns when every worker has drained and exited.
			_, g.runErr = sim.RunConcurrent(g.cfg.Pipeline, g.worker, sim.Config{AlgSeed: algSeed})
		}()
	}
	return n, nil
}

// Config returns the node's resolved configuration.
func (n *Node) Config() Config { return n.cfg }

// Shards returns the number of consensus groups.
func (n *Node) Shards() int { return n.cfg.Shards }

// ShardOf returns the group serving key: an FNV-1a hash of the key
// modulo the shard count. The mapping is a pure function of (key,
// Shards), so routing is stable across runs and nodes.
func (n *Node) ShardOf(key string) int { return shardOfKey(key, n.cfg.Shards) }

func shardOfKey(key string, shards int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(shards))
}

// Submit routes one mutating op to its key's group, waits for the batch
// carrying it to commit and apply, and returns the op's result. client
// identifies the submitting session; it only needs to be meaningful to
// the caller (tags are made unique by the node-wide sequence number).
// Submit blocks while the group's intake queue is full — backpressure —
// and fails with ErrClosed once Close has begun.
func (n *Node) Submit(client uint32, op rsm.Op) (OpResult, error) {
	switch op.Kind {
	case rsm.OpSet, rsm.OpDel, rsm.OpInc:
	default:
		return OpResult{}, fmt.Errorf("service: op kind %v is not submittable", op.Kind)
	}
	g := n.groups[n.ShardOf(op.Key)]
	po := &pendingOp{
		tag:  Tag{Client: client, Seq: n.seq.Add(1)},
		op:   op,
		done: make(chan struct{}, 1),
	}
	// The send happens under the read half of closeMu: Close flips the
	// flag and closes the intakes under the write half, so it can only
	// proceed once no submitter is mid-send (a blocked send on a closing
	// channel would panic) and no new submitter can slip in after the
	// drain began.
	n.closeMu.RLock()
	if n.closed {
		n.closeMu.RUnlock()
		return OpResult{}, ErrClosed
	}
	mQueueDepth.Observe(int64(len(g.intake)))
	g.intake <- po
	n.closeMu.RUnlock()
	mSubmitted.Inc()
	<-po.done
	return po.res, po.err
}

// Get serves a read from the key's group state: the result reflects
// every batch that group has applied (sequentially consistent per
// group). Reads cost no consensus.
func (n *Node) Get(key string) (string, bool) {
	g := n.groups[n.ShardOf(key)]
	mReads.Inc()
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.kv.Get(key)
}

// worker is one proposer process: it blocks for the first queued op,
// drains up to BatchMax-1 more without blocking, claims the group's next
// slot, proposes the encoded batch into that slot's consensus instance,
// and delivers the decided batch. Exactly one worker proposes per slot
// (the claim is an atomic counter), so the decided value is always the
// claimant's own proposal.
func (g *group) worker(p *sim.Proc) {
	var ops []BatchOp // EncodeBatch keeps none of it, so it is reused per batch
	for {
		first, ok := <-g.intake
		if !ok {
			return
		}
		batch := []*pendingOp{first}
	drain:
		for len(batch) < g.cfg.BatchMax {
			select {
			case po, ok := <-g.intake:
				if !ok {
					// Intake closed mid-drain: propose what we have; the
					// next outer receive exits the loop.
					break drain
				}
				batch = append(batch, po)
			default:
				break drain
			}
		}
		ops = ops[:0]
		for _, po := range batch {
			ops = append(ops, BatchOp{Tag: po.tag, Op: po.op})
		}
		enc := EncodeBatch(ops)
		slot := int(g.nextSlot.Add(1) - 1)
		dec := g.log.Propose(p, slot, enc)
		g.deliver(decidedBatch{slot: slot, proposed: enc, decided: dec, waiters: batch})
	}
}

// deliver stashes a decided slot and, if it is the next slot to apply,
// applies it and every stashed slot that follows it without a gap, in
// slot order. Workers decide slots out of order (pipelining), so state
// only ever advances slot by slot, whichever worker's delivery completes
// the run. The run's waiters are woken outside the lock, and the applied
// slots' consensus instances are recycled.
func (g *group) deliver(d decidedBatch) {
	if d.decided != d.proposed {
		// Slots are single-proposer by construction, so consensus
		// validity forces decided == proposed; anything else means the
		// slot-claim invariant broke. The group stops applying at this
		// slot, and this and every later batch's Submits fail.
		err := fmt.Errorf("service: group %d slot %d decided a batch nobody proposed there", g.id, d.slot)
		g.failure.CompareAndSwap(nil, &err)
	}
	// run collects the batches this delivery applies (or fails), to wake
	// their waiters after the unlock; it is nearly always one slot.
	var buf [4]decidedBatch
	run := buf[:0]
	g.mu.Lock()
	g.stash[d.slot] = d
	for {
		b, ok := g.stash[g.next]
		if !ok {
			break
		}
		delete(g.stash, g.next)
		g.next++
		if b.decided != b.proposed {
			g.halted = true
		}
		if g.halted {
			err := *g.failure.Load()
			for _, po := range b.waiters {
				po.err = err
			}
		} else {
			g.apply(b)
		}
		run = append(run, b)
	}
	next := g.next
	g.mu.Unlock()
	for _, b := range run {
		for _, po := range b.waiters {
			po.done <- struct{}{}
		}
	}
	if len(run) > 0 {
		// The run's waiters are woken and its batches are in decidedLog,
		// so their consensus instances can be recycled.
		g.log.Compact(next)
	}
}

// apply applies one decided batch to the group's state: the waiters'
// own ops, which are the decided ones since decided == proposed. It
// records each op's result on its waiter. The caller holds g.mu.
func (g *group) apply(d decidedBatch) {
	for _, po := range d.waiters {
		g.kv.Apply(po.op)
		po.res = OpResult{Shard: g.id, Slot: d.slot}
		po.res.Value, po.res.Found = g.kv.Get(po.op.Key)
	}
	g.decidedLog = append(g.decidedLog, d.decided)
	g.appliedSlots++
	g.appliedOps += int64(len(d.waiters))
	g.batchSizes.Add(int64(len(d.waiters)))
	mBatches.Inc()
	mBatchOps.Observe(int64(len(d.waiters)))
	mCommitted.Add(int64(len(d.waiters)))
	g.shardOps.Add(int64(len(d.waiters)))
}

// Close drains the node gracefully: no new submissions are accepted,
// every already-queued op still commits and applies, in-flight slots
// flush in order, and all worker goroutines exit. It reports any group
// whose workers panicked or whose apply invariant broke. Close is
// idempotent; later calls return the first result.
func (n *Node) Close() error {
	n.closeMu.Lock()
	if n.closed {
		n.closeMu.Unlock()
		return n.closeErr
	}
	n.closed = true
	for _, g := range n.groups {
		close(g.intake)
	}
	n.closeMu.Unlock()
	n.wg.Wait()
	errs := make([]error, 0, len(n.groups))
	for _, g := range n.groups {
		if g.runErr != nil {
			errs = append(errs, fmt.Errorf("group %d: %w", g.id, g.runErr))
		}
		if err := g.failure.Load(); err != nil {
			errs = append(errs, *err)
		}
	}
	n.closeErr = errors.Join(errs...)
	return n.closeErr
}

// GroupStatus is one group's point-in-time counters.
type GroupStatus struct {
	Shard        int   `json:"shard"`
	AppliedSlots int   `json:"applied_slots"`
	AppliedOps   int64 `json:"applied_ops"`
	QueueLen     int   `json:"queue_len"`
	Keys         int   `json:"keys"`
	// LiveSlots counts the group's consensus instances not yet
	// compacted: slots in flight or decided but not yet applied.
	LiveSlots int `json:"live_slots"`
}

// Status is the /v1/status payload.
type Status struct {
	Shards     int           `json:"shards"`
	Pipeline   int           `json:"pipeline"`
	BatchMax   int           `json:"batch_max"`
	QueueDepth int           `json:"queue_depth"`
	Protocol   string        `json:"protocol"`
	Submitted  uint64        `json:"submitted"`
	Groups     []GroupStatus `json:"groups"`
}

// Status snapshots the node.
func (n *Node) Status() Status {
	s := Status{
		Shards:     n.cfg.Shards,
		Pipeline:   n.cfg.Pipeline,
		BatchMax:   n.cfg.BatchMax,
		QueueDepth: n.cfg.QueueDepth,
		Protocol:   n.cfg.Protocol,
		Submitted:  n.seq.Load(),
	}
	if s.Protocol == "" {
		s.Protocol = "register"
	}
	for _, g := range n.groups {
		g.mu.RLock()
		gs := GroupStatus{
			Shard:        g.id,
			AppliedSlots: g.appliedSlots,
			AppliedOps:   g.appliedOps,
			QueueLen:     len(g.intake),
			Keys:         g.kv.Len(),
		}
		g.mu.RUnlock()
		gs.LiveSlots = g.log.Slots()
		s.Groups = append(s.Groups, gs)
	}
	return s
}

// DecidedLog returns a copy of shard's applied batch log in slot order —
// the canonical byte string the determinism tests fingerprint.
func (n *Node) DecidedLog(shard int) []string {
	g := n.groups[shard]
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, len(g.decidedLog))
	copy(out, g.decidedLog)
	return out
}

// KVFingerprint returns shard's canonical state digest.
func (n *Node) KVFingerprint(shard int) string {
	g := n.groups[shard]
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.kv.Fingerprint()
}

// BatchOccupancy merges every group's batch-size histogram: how many ops
// rode in each decided consensus slot so far.
func (n *Node) BatchOccupancy() *stats.IntHist {
	out := stats.NewIntHist(n.cfg.BatchMax + 1)
	for _, g := range n.groups {
		g.mu.RLock()
		out.Merge(g.batchSizes)
		g.mu.RUnlock()
	}
	return out
}
