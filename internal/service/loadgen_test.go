package service

import (
	"testing"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

func TestRunLoadAgainstNode(t *testing.T) {
	n, err := Start(Config{Shards: 2, Pipeline: 2, BatchMax: 16, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	rep, err := RunLoad(NodeBackend{Node: n}, LoadConfig{
		Clients:  4,
		Duration: 150 * time.Millisecond,
		ReadFrac: 0.5,
		Keys:     64,
		Seed:     31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d load errors against a healthy node", rep.Errors)
	}
	if rep.Writes == 0 || rep.Reads == 0 {
		t.Fatalf("degenerate mix: %d reads, %d writes", rep.Reads, rep.Writes)
	}
	if rep.WriteLat.N() != rep.Writes || rep.ReadLat.N() != rep.Reads {
		t.Fatalf("histogram counts (%d, %d) disagree with op counts (%d, %d)",
			rep.ReadLat.N(), rep.WriteLat.N(), rep.Reads, rep.Writes)
	}
	if rep.Throughput() <= 0 || rep.WriteThroughput() <= 0 {
		t.Fatalf("throughput %f / %f, want > 0", rep.Throughput(), rep.WriteThroughput())
	}
	if p99 := rep.WriteLat.Quantile(0.99); p99 <= 0 || p99 > maxLatencyUs {
		t.Fatalf("write p99 %dus out of range", p99)
	}
	// The load actually committed through consensus.
	var applied int64
	for _, gs := range n.Status().Groups {
		applied += gs.AppliedOps
	}
	if applied != rep.Writes {
		t.Fatalf("node applied %d ops, load reported %d committed writes", applied, rep.Writes)
	}
}

func TestRunLoadConfigValidation(t *testing.T) {
	if _, err := RunLoad(NodeBackend{}, LoadConfig{Skew: "pareto"}); err == nil {
		t.Fatal("RunLoad accepted unknown skew")
	}
	if _, err := RunLoad(NodeBackend{}, LoadConfig{ReadFrac: 1.5}); err == nil {
		t.Fatal("RunLoad accepted ReadFrac > 1")
	}
	if _, err := RunLoad(NodeBackend{}, LoadConfig{Duration: -time.Second}); err == nil {
		t.Fatal("RunLoad accepted a negative Duration")
	}
}

// TestKeySamplerZipfSkew checks the zipf sampler actually skews: rank 0
// must be drawn far more often than the tail, and the sampled stream is
// a pure function of the seed.
func TestKeySamplerZipfSkew(t *testing.T) {
	const keys, draws = 64, 20000
	s := newKeySampler(SkewZipf, keys)
	counts := make(map[string]int)
	rng := xrand.New(17)
	for i := 0; i < draws; i++ {
		counts[s.key(rng)]++
	}
	hot, cold := counts["k00000"], counts["k00063"]
	if hot < 10*cold+10 {
		t.Fatalf("zipf head not hot: k00000=%d, k00063=%d", hot, cold)
	}
	// Deterministic replay.
	rngA, rngB := xrand.New(23), xrand.New(23)
	for i := 0; i < 1000; i++ {
		if a, b := s.key(rngA), s.key(rngB); a != b {
			t.Fatalf("draw %d diverged under identical seeds: %q vs %q", i, a, b)
		}
	}
}

func TestKeySamplerUniformCoverage(t *testing.T) {
	const keys = 16
	s := newKeySampler(SkewUniform, keys)
	rng := xrand.New(9)
	seen := make(map[string]bool)
	for i := 0; i < 2000; i++ {
		seen[s.key(rng)] = true
	}
	if len(seen) != keys {
		t.Fatalf("uniform sampler hit %d/%d keys", len(seen), keys)
	}
}
