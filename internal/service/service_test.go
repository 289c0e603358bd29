package service

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/rsm"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// sequentialWorkload drives one deterministic op stream through a node,
// one op at a time, and returns every shard's decided log.
func sequentialWorkload(t *testing.T, cfg Config, nops int) ([][]string, []string) {
	t.Helper()
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	rng := xrand.New(99)
	for i := 0; i < nops; i++ {
		op := randOp(rng, fmt.Sprintf("k%03d", rng.Intn(64)))
		if _, err := n.Submit(1, op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	logs := make([][]string, n.Shards())
	fps := make([]string, n.Shards())
	for s := 0; s < n.Shards(); s++ {
		logs[s] = n.DecidedLog(s)
		fps[s] = n.KVFingerprint(s)
	}
	return logs, fps
}

// TestBatchingDeterminism: the same seed and the same arrival order must
// produce byte-identical decided logs and state fingerprints, run to run
// — batching, encoding, and slot assignment are all deterministic for a
// sequential submitter.
func TestBatchingDeterminism(t *testing.T) {
	cfg := Config{Shards: 2, Pipeline: 3, Seed: 42}
	logsA, fpsA := sequentialWorkload(t, cfg, 200)
	logsB, fpsB := sequentialWorkload(t, cfg, 200)
	for s := range logsA {
		if len(logsA[s]) != len(logsB[s]) {
			t.Fatalf("shard %d: %d vs %d decided slots across identical runs", s, len(logsA[s]), len(logsB[s]))
		}
		for i := range logsA[s] {
			if logsA[s][i] != logsB[s][i] {
				t.Fatalf("shard %d slot %d differs across identical runs:\n%q\nvs\n%q", s, i, logsA[s][i], logsB[s][i])
			}
		}
		if fpsA[s] != fpsB[s] {
			t.Fatalf("shard %d fingerprint differs: %s vs %s", s, fpsA[s], fpsB[s])
		}
	}
}

// TestShardRoutingStability pins the key→shard mapping: it is a pure
// function of (key, shard count), identical across nodes and runs, and
// spreads a modest keyspace over every shard. The golden values detect
// accidental hash changes, which would silently re-home every key.
func TestShardRoutingStability(t *testing.T) {
	golden := []struct {
		key    string
		shards int
		want   int
	}{
		{"", 4, shardOfKey("", 4)},
		{"k00000", 4, shardOfKey("k00000", 4)},
		{"counter", 4, shardOfKey("counter", 4)},
	}
	// Self-derived goldens only pin cross-node agreement; the FNV-1a
	// constants are pinned explicitly through one hand-computed point:
	// FNV-1a("a") = 0xaf63dc4c8601ec8c.
	const fnvA = 0xaf63dc4c8601ec8c
	if got := shardOfKey("a", 1<<16); got != fnvA%(1<<16) {
		t.Fatalf("shardOfKey(\"a\", 2^16) = %d, want FNV-1a low bits %d", got, fnvA%(1<<16))
	}

	nA, err := Start(Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer nA.Close()
	nB, err := Start(Config{Shards: 4, Seed: 777, Pipeline: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer nB.Close()
	for _, g := range golden {
		if got := nA.ShardOf(g.key); got != g.want {
			t.Fatalf("node A routes %q to %d, want %d", g.key, got, g.want)
		}
		if got := nB.ShardOf(g.key); got != g.want {
			t.Fatalf("node B routes %q to %d, want %d", g.key, got, g.want)
		}
	}
	hit := make(map[int]int)
	for i := 0; i < 1000; i++ {
		hit[nA.ShardOf(fmt.Sprintf("key-%d", i))]++
	}
	for s := 0; s < 4; s++ {
		if hit[s] == 0 {
			t.Fatalf("1000 keys never touched shard %d: %v", s, hit)
		}
	}
}

// TestPipelinedApplyConcurrentClients is the exactly-once accounting test
// under real concurrency (run with -race): many clients increment both a
// private and a shared counter through pipelined, batched consensus, and
// every increment must land exactly once, in slot order, with strictly
// increasing post-increment values per client.
func TestPipelinedApplyConcurrentClients(t *testing.T) {
	const (
		clients = 8
		incs    = 40
	)
	n, err := Start(Config{Shards: 2, Pipeline: 4, BatchMax: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			own := fmt.Sprintf("own-%d", c)
			prevOwn, prevSlot := 0, -1
			for i := 0; i < incs; i++ {
				res, err := n.Submit(uint32(c), rsm.Op{Kind: rsm.OpInc, Key: own})
				if err != nil {
					errs[c] = err
					return
				}
				v, err := strconv.Atoi(res.Value)
				if err != nil || v != prevOwn+1 {
					errs[c] = fmt.Errorf("own counter after inc %d: %q (prev %d)", i, res.Value, prevOwn)
					return
				}
				prevOwn = v
				// A client's sequential submits to one shard commit in
				// strictly increasing slots: the batch carrying op i+1 is
				// claimed after op i's slot applied.
				if res.Slot <= prevSlot {
					errs[c] = fmt.Errorf("slot went backwards: %d after %d", res.Slot, prevSlot)
					return
				}
				prevSlot = res.Slot
				if _, err := n.Submit(uint32(c), rsm.Op{Kind: rsm.OpInc, Key: "shared"}); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	for c := 0; c < clients; c++ {
		key := fmt.Sprintf("own-%d", c)
		if v, ok := n.Get(key); !ok || v != strconv.Itoa(incs) {
			t.Fatalf("%s = %q, want %d", key, v, incs)
		}
	}
	if v, ok := n.Get("shared"); !ok || v != strconv.Itoa(clients*incs) {
		t.Fatalf("shared = %q, want %d (an increment was conflated or dropped)", v, clients*incs)
	}

	// Decided logs must replay to the applied state, slot by slot.
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	var totalOps int64
	for s := 0; s < n.Shards(); s++ {
		replay := rsm.NewKV()
		for _, enc := range n.DecidedLog(s) {
			ops, err := DecodeBatch(enc)
			if err != nil {
				t.Fatalf("shard %d decided log holds undecodable batch: %v", s, err)
			}
			for _, bo := range ops {
				replay.Apply(bo.Op)
				totalOps++
			}
		}
		if got, want := replay.Fingerprint(), n.KVFingerprint(s); got != want {
			t.Fatalf("shard %d: decided-log replay fingerprint %s != applied state %s", s, got, want)
		}
	}
	if want := int64(clients * incs * 2); totalOps != want {
		t.Fatalf("decided logs carry %d ops, want %d", totalOps, want)
	}
	occ := n.BatchOccupancy()
	if occ.N() == 0 || occ.Sum() != totalOps {
		t.Fatalf("batch occupancy histogram: N=%d Sum=%d, want Sum=%d", occ.N(), occ.Sum(), totalOps)
	}
}

// TestGracefulShutdownDrain: every op accepted before Close commits and
// applies; ops arriving after Close fail fast with ErrClosed; Close is
// idempotent.
func TestGracefulShutdownDrain(t *testing.T) {
	n, err := Start(Config{Shards: 2, Pipeline: 2, BatchMax: 4, QueueDepth: 128, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const (
		submitters = 32
		keys       = 4
	)
	// committed[c] is how many of client c's increments of drain-(c%keys)
	// succeeded before Close turned it away.
	committed := make([]int, submitters)
	var wg sync.WaitGroup
	for c := 0; c < submitters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				_, err := n.Submit(uint32(c), rsm.Op{Kind: rsm.OpInc, Key: fmt.Sprintf("drain-%d", c%keys)})
				if errors.Is(err, ErrClosed) {
					committed[c] = i
					return
				}
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					committed[c] = i
					return
				}
			}
		}(c)
	}
	// Let the submitters race the shutdown: half the point is that Close
	// overlaps in-flight Submits without panicking or stranding waiters.
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	var want int
	perKey := make([]int, keys)
	for c, k := range committed {
		want += k
		perKey[c%keys] += k
	}
	var applied int64
	for _, gs := range n.Status().Groups {
		applied += gs.AppliedOps
		if gs.QueueLen != 0 {
			t.Fatalf("shard %d queue not drained: %d ops stranded", gs.Shard, gs.QueueLen)
		}
	}
	if applied != int64(want) {
		t.Fatalf("applied %d ops but %d submissions succeeded — drain lost or invented ops", applied, want)
	}

	if _, err := n.Submit(0, rsm.Op{Kind: rsm.OpSet, Key: "late", Value: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Reads still serve the final applied state after Close: each
	// counter holds exactly its own clients' committed increments, and a
	// counter nobody committed to was never created.
	for k, want := range perKey {
		key := fmt.Sprintf("drain-%d", k)
		v, ok := n.Get(key)
		switch {
		case want == 0 && ok:
			t.Errorf("%s = %q after Close, but none of its clients committed", key, v)
		case want > 0 && v != strconv.Itoa(want):
			t.Errorf("%s = %q (present %v) after Close, want %d committed increments", key, v, ok, want)
		}
	}
}

// TestLiveSlotsBoundedAfterDrain: the applier compacts each slot once
// it is applied, so after 10k writes the groups hold no more consensus
// instances than the pipeline keeps in flight — none once the node has
// closed — instead of one per slot ever decided.
func TestLiveSlotsBoundedAfterDrain(t *testing.T) {
	const (
		clients = 4
		writes  = 10000
	)
	cfg := Config{Shards: 2, Pipeline: 3, BatchMax: 4, Seed: 13}
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < writes; i += clients {
				op := rsm.Op{Kind: rsm.OpSet, Key: fmt.Sprintf("k%03d", i%512), Value: strconv.Itoa(i)}
				if _, err := n.Submit(uint32(c), op); err != nil {
					t.Errorf("client %d write %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	var slots int
	for _, gs := range n.Status().Groups {
		slots += gs.AppliedSlots
		if gs.LiveSlots > cfg.Pipeline {
			t.Errorf("shard %d holds %d live slots after its writes applied, want <= pipeline %d", gs.Shard, gs.LiveSlots, cfg.Pipeline)
		}
	}
	if slots < writes/cfg.BatchMax {
		t.Fatalf("only %d slots applied for %d writes", slots, writes)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	for _, gs := range n.Status().Groups {
		if gs.LiveSlots != 0 {
			t.Errorf("shard %d holds %d live slots after Close, want 0", gs.Shard, gs.LiveSlots)
		}
	}
}

// TestSubmitValidation rejects non-mutating kinds and bad configs.
func TestSubmitValidation(t *testing.T) {
	if _, err := Start(Config{Shards: -1}); err == nil {
		t.Fatal("Start accepted negative shard count")
	}
	if _, err := Start(Config{Protocol: "paxos"}); err == nil {
		t.Fatal("Start accepted unknown protocol")
	}
	n, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := n.Config(); got.Shards != 1 || got.Pipeline != 2 || got.BatchMax != 64 || got.QueueDepth != 256 {
		t.Fatalf("defaults not applied: %+v", got)
	}
	if _, err := n.Submit(0, rsm.Op{Kind: rsm.OpKind(99), Key: "k"}); err == nil {
		t.Fatal("Submit accepted unknown op kind")
	}
}

// TestProtocolVariants runs a small workload through each consensus
// construction the service can mount.
func TestProtocolVariants(t *testing.T) {
	for _, proto := range []string{"register", "snapshot", "linear"} {
		t.Run(proto, func(t *testing.T) {
			n, err := Start(Config{Protocol: proto, Pipeline: 2, Seed: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			for i := 0; i < 10; i++ {
				if _, err := n.Submit(0, rsm.Op{Kind: rsm.OpInc, Key: "n"}); err != nil {
					t.Fatal(err)
				}
			}
			if v, _ := n.Get("n"); v != "10" {
				t.Fatalf("n = %q, want 10", v)
			}
			if st := n.Status(); st.Protocol != proto {
				t.Fatalf("status protocol %q, want %q", st.Protocol, proto)
			}
		})
	}
}
