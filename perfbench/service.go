package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/metrics"
	"github.com/oblivious-consensus/conciliator/internal/rsm"
	"github.com/oblivious-consensus/conciliator/internal/service"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/stats"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

const (
	closedShards = 4
	openShards   = 1
	clients      = 2 // closed-loop clients: one per CPU of the reference host
	readFrac     = 0.25
	numKeys      = 1024
)

var keys = func() []string {
	ks := make([]string, numKeys)
	for i := range ks {
		ks[i] = fmt.Sprintf("k%05d", i)
	}
	return ks
}()

type svcOp struct {
	read bool
	op   rsm.Op
}

// genOps draws n ops over the uniform keyspace: reads with probability
// readFrac, otherwise mostly sets, a good share of increments (a
// read-modify-write through applied state) and a few deletes.
func genOps(rng *xrand.Rand, n int, readFrac float64) []svcOp {
	ops := make([]svcOp, n)
	for i := range ops {
		key := keys[rng.Intn(numKeys)]
		if rng.Float64() < readFrac {
			ops[i] = svcOp{read: true, op: rsm.Op{Key: key}}
			continue
		}
		switch r := rng.Float64(); {
		case r < 0.5:
			ops[i].op = rsm.Op{Kind: rsm.OpSet, Key: key, Value: "v" + strconv.FormatUint(rng.Uint64n(1<<20), 10)}
		case r < 0.9:
			ops[i].op = rsm.Op{Kind: rsm.OpInc, Key: key}
		default:
			ops[i].op = rsm.Op{Kind: rsm.OpDel, Key: key}
		}
	}
	return ops
}

type clientStats struct {
	reads, writes, failed int64
	writeLat              []float64 // µs
	spans                 []span
}

// closedLoop runs one goroutine per client over its ops; each client
// sends its next op only when the previous one has returned.
func closedLoop(node *service.Node, ops [][]svcOp, tr *tracer) []clientStats {
	out := make([]clientStats, len(ops))
	var wg sync.WaitGroup
	for c := range ops {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs := &out[c]
			cs.writeLat = make([]float64, 0, len(ops[c]))
			for _, o := range ops[c] {
				name := "service.Submit"
				start := time.Now()
				if o.read {
					name = "service.Get"
					node.Get(o.op.Key)
					cs.reads++
				} else if _, err := node.Submit(uint32(c), o.op); err != nil {
					cs.failed++
				} else {
					cs.writes++
				}
				end := time.Now()
				if !o.read {
					cs.writeLat = append(cs.writeLat, micros(end.Sub(start)))
				}
				if tr != nil {
					cs.spans = append(cs.spans, tr.mk(name, 0, tr.newID(), start, end))
				}
			}
		}(c)
	}
	wg.Wait()
	if tr != nil {
		for c := range out {
			tr.add(out[c].spans...)
			out[c].spans = nil
		}
	}
	return out
}

// runtimeSample is the state read around a timed region: the runtime's
// GC counters and, on a traced pass, the program's metrics registry.
type runtimeSample struct {
	numGC   uint32
	pauseNs uint64
	reg     metrics.Snapshot
	batches *stats.IntHist // node.BatchOccupancy
}

func sample(node *service.Node, tr *tracer) runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := runtimeSample{numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
	if tr != nil {
		s.reg = tr.reg.Snapshot()
		s.batches = node.BatchOccupancy()
	}
	return s
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// cpuTime is the CPU time the process has used, user plus system.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// svcLayers accumulates a traced service pass's per-layer numbers.
type svcLayers struct {
	replay     replayStats
	occupancy  []float64 // per rep, ops per slot decided in the timed region
	queueP99   []float64
	opsPerSlot []float64
	casPerSlot []float64
	livePerOp  []float64
	gcCycles   []float64
	gcPauseMs  []float64
	propose    []float64 // µs, rep 0's re-proposed batches
	late       []float64 // µs, svc-open dispatcher
}

// rep records the per-rep layer numbers of a traced rep whose timed
// region lies between before and after.
func (l *svcLayers) rep(before, after runtimeSample, liveDelta float64, acked int64) {
	reg := after.reg.Sub(before.reg)
	slots := float64(reg.Counters["service.batches"])
	var memOps, casRetry int64
	for name, v := range reg.Counters {
		switch {
		case !strings.HasPrefix(name, "memory."), strings.HasPrefix(name, "memory.treemax."), strings.HasPrefix(name, "memory.afek."),
			strings.HasSuffix(name, ".contended"):
		case strings.HasSuffix(name, ".casretry"):
			casRetry += v
		default:
			memOps += v
		}
	}
	if n := after.batches.N() - before.batches.N(); n > 0 {
		l.occupancy = append(l.occupancy, float64(after.batches.Sum()-before.batches.Sum())/float64(n))
	}
	l.queueP99 = append(l.queueP99, float64(reg.Histograms["service.queue_depth"].Quantile(0.99)))
	if slots > 0 {
		l.opsPerSlot = append(l.opsPerSlot, float64(memOps)/slots)
		l.casPerSlot = append(l.casPerSlot, float64(casRetry)/slots)
	}
	if acked > 0 {
		l.livePerOp = append(l.livePerOp, liveDelta/float64(acked))
	}
	l.gcCycles = append(l.gcCycles, float64(after.numGC-before.numGC))
	l.gcPauseMs = append(l.gcPauseMs, float64(after.pauseNs-before.pauseNs)/1e6)
}

func (l *svcLayers) metrics(spans []span) map[string]float64 {
	submit, get := spanMicros(spans, "service.Submit"), spanMicros(spans, "service.Get")
	m := map[string]float64{
		"service.submit_us.p50":     quantile(submit, 0.5),
		"service.submit_us.p99":     quantile(submit, 0.99),
		"service.get_us.p99":        quantile(get, 0.99),
		"service.batch_ops_mean":    median(l.occupancy),
		"service.queue_depth.p99":   median(l.queueP99),
		"rsm.propose_us.p50":        quantile(l.propose, 0.5),
		"rsm.propose_us.p99":        quantile(l.propose, 0.99),
		"memory.ops_per_slot":       median(l.opsPerSlot),
		"memory.casretry_per_slot":  median(l.casPerSlot),
		"runtime.live_bytes_per_op": median(l.livePerOp),
		"runtime.gc_cycles":         median(l.gcCycles),
		"runtime.gc_pause_ms":       median(l.gcPauseMs),
		"gen.late_us.p50":           quantile(l.late, 0.5),
		"gen.late_us.p99":           quantile(l.late, 0.99),
	}
	if rs := l.replay; rs.batches > 0 {
		m["service.decode_ns_per_batch"] = float64(rs.decode.Nanoseconds()) / float64(rs.batches)
		m["service.encode_ns_per_batch"] = float64(rs.encode.Nanoseconds()) / float64(rs.batches)
	}
	if rs := l.replay; rs.ops > 0 {
		m["rsm.apply_ns_per_op"] = float64(rs.apply.Nanoseconds()) / float64(rs.ops)
	}
	return m
}

func spanMicros(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, micros(s.dur()))
		}
	}
	return out
}

// finishNode closes node after its timed region, checks its decided logs
// against its state and the acknowledged writes, and on a traced pass
// re-proposes rep 0's shard-0 batches for the rsm layer's latency.
func finishNode(p *pass, l *svcLayers, node *service.Node, acked int64, r int, seed uint64, tr *tracer) error {
	if err := node.Close(); err != nil {
		return fmt.Errorf("close node: %w", err)
	}
	logs := make([][]string, node.Shards())
	fps := make([]string, node.Shards())
	for s := range logs {
		logs[s], fps[s] = node.DecidedLog(s), node.KVFingerprint(s)
	}
	failed, errs := checkReplay(logs, fps, acked, &l.replay, tr)
	for _, e := range errs {
		p.fail(0, e)
	}
	p.failed += failed
	if tr == nil || r != 0 {
		return nil
	}
	lat, err := repropose(logs[0], node.Config().Pipeline, seed, tr)
	if err != nil {
		return err
	}
	l.propose = lat
	return nil
}

// replayStats times the post-run replay of the decided logs.
type replayStats struct {
	batches, ops          int64
	decode, encode, apply time.Duration
}

// checkReplay replays every shard's decided log through DecodeBatch into
// a fresh rsm.KV and compares the result with the shard's own state;
// the decided ops must number exactly the acknowledged writes. It
// returns the ops it counts as failed and one message per failed check.
func checkReplay(logs [][]string, fingerprints []string, acked int64, rs *replayStats, tr *tracer) (failed int64, errs []string) {
	var decided int64
	for s, log := range logs {
		n, err := replayShard(log, fingerprints[s], rs, tr)
		decided += n
		if err != nil {
			failed += max(n, 1)
			errs = append(errs, fmt.Sprintf("shard %d replay: %v", s, err))
		}
	}
	if decided != acked {
		d := decided - acked
		if d < 0 {
			d = -d
		}
		failed += d
		errs = append(errs, fmt.Sprintf("%d ops decided but %d writes acknowledged", decided, acked))
	}
	return failed, errs
}

func replayShard(log []string, fingerprint string, rs *replayStats, tr *tracer) (int64, error) {
	start := time.Now()
	decoded := make([][]service.BatchOp, len(log))
	for i, b := range log {
		ops, err := service.DecodeBatch(b)
		if err != nil {
			return 0, fmt.Errorf("slot %d: %w", i, err)
		}
		decoded[i] = ops
	}
	mid := time.Now()
	kv := rsm.NewKV()
	var n int64
	for _, ops := range decoded {
		for _, bo := range ops {
			kv.Apply(bo.Op)
		}
		n += int64(len(ops))
	}
	applied := time.Now()
	for i, ops := range decoded {
		if service.EncodeBatch(ops) != log[i] {
			return n, fmt.Errorf("slot %d: re-encoding the decoded batch changes its bytes", i)
		}
	}
	end := time.Now()
	rs.batches += int64(len(log))
	rs.ops += n
	rs.decode += mid.Sub(start)
	rs.apply += applied.Sub(mid)
	rs.encode += end.Sub(applied)
	if tr != nil {
		tr.add(tr.mk("service.DecodeBatch", 0, 0, start, mid),
			tr.mk("rsm.KV.Apply", 0, 0, mid, applied),
			tr.mk("service.EncodeBatch", 0, 0, applied, end))
	}
	if kv.Fingerprint() != fingerprint {
		return n, fmt.Errorf("state after replaying %d slots differs from the node's", len(log))
	}
	return n, nil
}

// repropose proposes batches, in slot order, into a fresh rsm.Log with
// the service's default protocol, from width concurrent proposers that
// each claim the next slot, and returns each Propose's latency in µs.
func repropose(batches []string, width int, seed uint64, tr *tracer) ([]float64, error) {
	log := rsm.NewLog[string](width, consensus.NewRegister[string])
	starts := make([]time.Time, len(batches))
	ends := make([]time.Time, len(batches))
	var next, wrong atomic.Int64
	_, err := sim.RunConcurrent(width, func(p *sim.Proc) {
		for {
			s := int(next.Add(1) - 1)
			if s >= len(batches) {
				return
			}
			starts[s] = time.Now()
			d := log.Propose(p, s, batches[s])
			ends[s] = time.Now()
			if d != batches[s] {
				wrong.Add(1)
			}
		}
	}, sim.Config{AlgSeed: seed})
	if err != nil {
		return nil, fmt.Errorf("re-propose: %w", err)
	}
	if w := wrong.Load(); w != 0 {
		return nil, fmt.Errorf("re-propose: %d single-proposer slots decided another value", w)
	}
	lat := make([]float64, len(batches))
	spans := make([]span, len(batches))
	for s := range batches {
		lat[s] = micros(ends[s].Sub(starts[s]))
		spans[s] = tr.mk("rsm.Log.Propose", 0, 0, starts[s], ends[s])
	}
	tr.add(spans...)
	return lat, nil
}

// runSvcClosed is the closed-loop service workload: two clients, a
// quarter reads, against a 4-shard node; a rep is a fixed op count per
// client on a fresh node.
func runSvcClosed(sz sizes, seed uint64, budget time.Duration, tr *tracer) (*pass, error) {
	p := &pass{}
	var l svcLayers
	err := repeat(p, budget, sz.minReps, func(r int) error {
		rs := repSeed(seed, r)
		root := xrand.New(rs)
		warm, timed := make([][]svcOp, clients), make([][]svcOp, clients)
		for c := range warm {
			rng := root.ForkNamed(uint64(c))
			warm[c], timed[c] = genOps(rng, sz.closedWarm, readFrac), genOps(rng, sz.closedOps, readFrac)
		}
		base := liveHeap()
		t0 := time.Now()
		node, err := service.Start(service.Config{Shards: closedShards, Seed: rs})
		if err != nil {
			return err
		}
		ws := closedLoop(node, warm, nil)
		setup := time.Since(t0)

		before := sample(node, tr)
		start := time.Now()
		ts := closedLoop(node, timed, tr)
		wall := time.Since(start)
		after := sample(node, tr)
		live := liveHeap()

		var acked, ops int64
		var lat []float64
		for _, cs := range append(ws, ts...) {
			acked += cs.writes
			p.attempted += cs.reads + cs.writes + cs.failed
			p.failed += cs.failed
		}
		for _, cs := range ts {
			ops += cs.reads + cs.writes
			lat = append(lat, cs.writeLat...)
		}
		p.addRep(setup, float64(ops)/wall.Seconds(), lat, live)
		if tr != nil {
			l.rep(before, after, live-base, acked)
		}
		return finishNode(p, &l, node, acked, r, rs, tr)
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		p.layer = l.metrics(tr.spans)
	}
	return p, nil
}

// runSvcOpen is the open-loop service workload: write-only Poisson
// arrivals at a fixed rate into a 1-shard node, so that arrivals queue
// while a slot is in flight and batches carry more than one op. A rep is
// a fixed arrival count on a fresh node. Latency runs from each
// arrival's due time, so it includes any wait the generator's lateness
// imposed; work_per_s is ops per CPU-second of the process, because the
// completed rate equals the offered rate.
func runSvcOpen(sz sizes, seed uint64, budget time.Duration, tr *tracer) (*pass, error) {
	p := &pass{}
	var l svcLayers
	err := repeat(p, budget, sz.minReps, func(r int) error {
		rs := repSeed(seed, r)
		root := xrand.New(rs)
		warm := make([][]svcOp, clients)
		for c := range warm {
			warm[c] = genOps(root.ForkNamed(uint64(c)), sz.openWarm, 0)
		}
		arng := root.ForkNamed(clients)
		n := sz.openArrivals
		due := make([]time.Duration, n)
		at := 0.0
		for i := range due {
			at += -math.Log(1-arng.Float64()) / sz.openRate
			due[i] = time.Duration(at * 1e9)
		}
		ops := genOps(arng, n, 0)

		base := liveHeap()
		t0 := time.Now()
		node, err := service.Start(service.Config{Shards: openShards, Seed: rs})
		if err != nil {
			return err
		}
		ws := closedLoop(node, warm, nil)
		setup := time.Since(t0)

		before := sample(node, tr)
		cpu0, err := cpuTime()
		if err != nil {
			return err
		}
		lat, late := make([]float64, n), make([]float64, n)
		ok := make([]bool, n)
		var spans []span
		if tr != nil {
			spans = make([]span, 2*n)
		}
		var wg sync.WaitGroup
		start := time.Now()
		// One dispatcher fires every arrival that is due whenever it wakes,
		// each on its own goroutine, so a slow service never slows arrivals.
		for i := 0; i < n; {
			now := time.Since(start)
			for ; i < n && due[i] <= now; i++ {
				late[i] = micros(now - due[i])
				wg.Add(1)
				go func(i int, fired time.Duration) {
					defer wg.Done()
					_, err := node.Submit(0, ops[i].op)
					done := time.Since(start)
					ok[i] = err == nil
					lat[i] = micros(done - due[i])
					if tr != nil {
						req := tr.newID()
						spans[2*i] = tr.mk("gen.request", 0, req, start.Add(due[i]), start.Add(done))
						spans[2*i+1] = tr.mk("service.Submit", spans[2*i].ID, req, start.Add(fired), start.Add(done))
					}
				}(i, now)
			}
			if i < n {
				time.Sleep(due[i] - now)
			}
		}
		wg.Wait()
		cpu1, err := cpuTime()
		if err != nil {
			return err
		}
		after := sample(node, tr)
		live := liveHeap()

		var acked int64
		for _, cs := range ws {
			acked += cs.writes
			p.attempted += cs.writes + cs.failed
			p.failed += cs.failed
		}
		p.attempted += int64(n)
		for i := range ok {
			if ok[i] {
				acked++
			} else {
				p.failed++
			}
		}
		p.addRep(setup, float64(n)/(cpu1-cpu0).Seconds(), lat, live)
		if tr != nil {
			tr.add(spans...)
			l.late = append(l.late, late...)
			l.rep(before, after, live-base, acked)
		}
		return finishNode(p, &l, node, acked, r, rs, tr)
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		p.layer = l.metrics(tr.spans)
	}
	return p, nil
}
