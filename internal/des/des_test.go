package des

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	times := []int64{50, 10, 30, 10, 20, 10, 40}
	for i, at := range times {
		q.push(at, int32(i), evDeliver, message{val: int32(i)})
	}
	var got []int64
	var ids []int32
	for {
		ev := q.pop()
		if ev == nil {
			break
		}
		got = append(got, ev.at)
		ids = append(ids, ev.msg.val)
	}
	want := []int64{10, 10, 10, 20, 30, 40, 50}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pop times = %v, want %v", got, want)
	}
	// Ties break by insertion order: the three t=10 events were pushed as
	// ids 1, 3, 5.
	if ids[0] != 1 || ids[1] != 3 || ids[2] != 5 {
		t.Errorf("tie order = %v, want insertion order 1, 3, 5", ids[:3])
	}
}

func TestLatencyDistributions(t *testing.T) {
	const samples = 20000
	mean := float64(time.Millisecond.Nanoseconds())
	for _, kind := range []LatencyKind{LatFixed, LatUniform, LatExp} {
		nw := newNetwork(NetConfig{Latency: LatencyDist{Kind: kind, Mean: time.Millisecond}}, 8, xrand.New(7))
		var sum float64
		for i := 0; i < samples; i++ {
			d := nw.latency()
			if d < 0 {
				t.Fatalf("%v: negative latency %d", kind, d)
			}
			if kind == LatFixed && float64(d) != mean {
				t.Fatalf("fixed latency = %d, want %g", d, mean)
			}
			sum += float64(d)
		}
		got := sum / samples
		if math.Abs(got-mean)/mean > 0.05 {
			t.Errorf("%v: sample mean %.0f, want within 5%% of %.0f", kind, got, mean)
		}
	}
}

// requireClean asserts a run decided everywhere with quiet monitors.
func requireClean(t *testing.T, res Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !res.AllDecided {
		t.Fatalf("not all processes decided: %+v", res)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("safety violations: %v", res.Violations)
	}
}

func TestRunAllProtocolsSmallN(t *testing.T) {
	for _, protocol := range Protocols() {
		for _, n := range []int{1, 2, 3, 8, 64} {
			res, err := Run(Config{N: n, Protocol: protocol, Seed: uint64(1000*n + 1)})
			requireClean(t, res, err)
			if res.Decision != 0 && res.Decision != 1 {
				t.Fatalf("%s n=%d: decision %d not a proposed value", protocol, n, res.Decision)
			}
			if res.N != n || res.Protocol != protocol || len(res.Steps) != n {
				t.Fatalf("%s n=%d: result metadata wrong: %+v", protocol, n, res)
			}
			for i, s := range res.Steps {
				if s < 1 {
					t.Fatalf("%s n=%d: process %d took %d steps", protocol, n, i, s)
				}
			}
			if res.Phases < 1 || res.Events == 0 || res.VirtualTime <= 0 {
				t.Fatalf("%s n=%d: implausible accounting: %+v", protocol, n, res)
			}
		}
	}
}

func TestRunUnanimousCommitsInOnePhase(t *testing.T) {
	// All-same inputs must commit in the first phase (adopt-commit
	// convergence); the monitor enforces it too, but pin it directly.
	inputs := make([]int, 32)
	for i := range inputs {
		inputs[i] = 1
	}
	res, err := Run(Config{N: 32, Protocol: ProtoSifter, Seed: 5, Inputs: inputs})
	requireClean(t, res, err)
	if res.Decision != 1 {
		t.Fatalf("decision = %d, want 1", res.Decision)
	}
	if res.Phases != 1 {
		t.Fatalf("phases = %d, want 1 for unanimous inputs", res.Phases)
	}
}

func TestRunReplayDeterminism(t *testing.T) {
	cfg := Config{
		N:        64,
		Protocol: ProtoSifter,
		Seed:     42,
		Net: NetConfig{
			Latency:    LatencyDist{Kind: LatExp, Mean: time.Millisecond},
			Loss:       0.1,
			Partitions: []Partition{{From: 2 * time.Millisecond, Until: 30 * time.Millisecond, Frac: 0.25}},
		},
	}
	a, errA := Run(cfg)
	b, errB := Run(cfg)
	requireClean(t, a, errA)
	requireClean(t, b, errB)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed and config gave different results:\n%+v\nvs\n%+v", a, b)
	}
	cfg.Seed = 43
	c, errC := Run(cfg)
	requireClean(t, c, errC)
	if reflect.DeepEqual(a.Steps, c.Steps) && a.VirtualTime == c.VirtualTime {
		t.Fatalf("different seeds gave identical executions")
	}
}

func TestRunWithLossRetransmits(t *testing.T) {
	res, err := Run(Config{
		N:        32,
		Protocol: ProtoSifterHalf,
		Seed:     9,
		Net:      NetConfig{Latency: LatencyDist{Kind: LatExp, Mean: time.Millisecond}, Loss: 0.3},
	})
	requireClean(t, res, err)
	if res.MsgsDropped == 0 {
		t.Fatalf("loss 0.3 dropped no messages: %+v", res)
	}
	if res.Retransmits == 0 {
		t.Fatalf("dropped messages but no retransmissions: %+v", res)
	}
}

func TestRunPartitionStallsThenHeals(t *testing.T) {
	// Half the processes are cut off from the server for the first 50ms;
	// with 1ms fixed latency the connected half finishes well inside the
	// window, the isolated half cannot complete a single operation until
	// the heal — so the run must finish after it, with blocked messages
	// on the books and everyone still agreeing.
	res, err := Run(Config{
		N:        16,
		Protocol: ProtoPriorityMax,
		Seed:     11,
		Net: NetConfig{
			Latency:    LatencyDist{Kind: LatFixed, Mean: time.Millisecond},
			Partitions: []Partition{{From: 0, Until: 50 * time.Millisecond, Frac: 0.5}},
		},
	})
	requireClean(t, res, err)
	if res.MsgsBlocked == 0 {
		t.Fatalf("partition blocked no messages: %+v", res)
	}
	if res.VirtualTime < 50*time.Millisecond {
		t.Fatalf("run finished at %v, before the partition healed at 50ms", res.VirtualTime)
	}
}

func TestRunEventBudgetReportsNontermination(t *testing.T) {
	res, err := Run(Config{N: 64, Protocol: ProtoSifterHalf, Seed: 3, MaxEvents: 100})
	if err == nil {
		t.Fatalf("expected an event-budget error, got %+v", res)
	}
	found := false
	for _, v := range res.Violations {
		if v.Monitor == "nontermination" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no nontermination violation reported: %v", res.Violations)
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero processes", Config{N: 0, Protocol: ProtoSifter}},
		{"unknown protocol", Config{N: 4, Protocol: "paxos"}},
		{"epsilon too big", Config{N: 4, Protocol: ProtoSifter, Epsilon: 1}},
		{"loss too big", Config{N: 4, Protocol: ProtoSifter, Net: NetConfig{Loss: 0.995}}},
		{"negative loss", Config{N: 4, Protocol: ProtoSifter, Net: NetConfig{Loss: -0.1}}},
		{"wrong input count", Config{N: 4, Protocol: ProtoSifter, Inputs: []int{0, 1}}},
		{"non-binary input", Config{N: 2, Protocol: ProtoSifter, Inputs: []int{0, 7}}},
		{"partition never heals", Config{N: 4, Protocol: ProtoSifter,
			Net: NetConfig{Partitions: []Partition{{From: time.Millisecond, Until: time.Millisecond, Frac: 0.5}}}}},
		{"partition frac zero", Config{N: 4, Protocol: ProtoSifter,
			Net: NetConfig{Partitions: []Partition{{From: 0, Until: time.Millisecond, Frac: 0}}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(tt.cfg); err == nil {
				t.Fatalf("config %+v validated", tt.cfg)
			}
		})
	}
}

// TestConfigLatencyDefaults pins how a run reads its latency
// distribution: the zero LatencyDist is exp:1ms, a zero mean takes 1ms
// and keeps any other kind, and a negative mean is rejected, as
// ParseLatency rejects it, rather than run as the default.
func TestConfigLatencyDefaults(t *testing.T) {
	tests := []struct {
		in   LatencyDist
		want LatencyDist // zero: the config must not validate
	}{
		{LatencyDist{}, LatencyDist{Kind: LatExp, Mean: time.Millisecond}},
		{LatencyDist{Kind: LatExp}, LatencyDist{Kind: LatExp, Mean: time.Millisecond}},
		{LatencyDist{Kind: LatUniform}, LatencyDist{Kind: LatUniform, Mean: time.Millisecond}},
		{LatencyDist{Kind: LatFixed, Mean: 2 * time.Millisecond}, LatencyDist{Kind: LatFixed, Mean: 2 * time.Millisecond}},
		{LatencyDist{Kind: LatUniform, Mean: 500 * time.Microsecond}, LatencyDist{Kind: LatUniform, Mean: 500 * time.Microsecond}},
		{LatencyDist{Kind: LatExp, Mean: -time.Millisecond}, LatencyDist{}},
		{LatencyDist{Kind: LatFixed, Mean: -1}, LatencyDist{}},
	}
	for _, tt := range tests {
		cfg := Config{N: 4, Protocol: ProtoSifter, Net: NetConfig{Latency: tt.in}}.withDefaults()
		err := cfg.validate()
		switch {
		case tt.want == LatencyDist{} && err == nil:
			t.Errorf("latency %v: validated as %v, want an error", tt.in, cfg.Net.Latency)
		case tt.want != LatencyDist{} && err != nil:
			t.Errorf("latency %v: %v", tt.in, err)
		case tt.want != LatencyDist{} && cfg.Net.Latency != tt.want:
			t.Errorf("latency %v runs as %v, want %v", tt.in, cfg.Net.Latency, tt.want)
		}
	}
}

func TestParseLatency(t *testing.T) {
	good := map[string]LatencyDist{
		"1ms":         {Kind: LatFixed, Mean: time.Millisecond},
		"fixed:2ms":   {Kind: LatFixed, Mean: 2 * time.Millisecond},
		"uniform:1ms": {Kind: LatUniform, Mean: time.Millisecond},
		"exp:500us":   {Kind: LatExp, Mean: 500 * time.Microsecond},
	}
	for in, want := range good {
		got, err := ParseLatency(in)
		if err != nil || got != want {
			t.Errorf("ParseLatency(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "normal:1ms", "exp:zzz", "exp:-1ms", "fixed:0s"} {
		if _, err := ParseLatency(bad); err == nil {
			t.Errorf("ParseLatency(%q) succeeded", bad)
		}
	}
}

func TestParsePartition(t *testing.T) {
	got, err := ParsePartition("5ms:25ms:0.3")
	want := Partition{From: 5 * time.Millisecond, Until: 25 * time.Millisecond, Frac: 0.3}
	if err != nil || got != want {
		t.Fatalf("ParsePartition = %v, %v; want %v", got, err, want)
	}
	rejected := []struct{ name, in string }{
		{"empty", ""},
		{"two fields", "5ms:25ms"},
		{"four fields", "5ms:25ms:0.3:1"},
		{"bad start", "x:25ms:0.3"},
		{"bad end", "5ms:y:0.3"},
		{"bad fraction", "5ms:25ms:z"},
		{"empty fraction", "5ms:25ms:"},
		{"fraction with trailing junk", "5ms:25ms:0.3abc"},
		{"two fractions", "5ms:25ms:0.3 0.5"},
		{"fraction with leading space", "5ms:25ms: 0.3"},
		{"fraction with trailing space", "5ms:25ms:0.3 "},
	}
	for _, tc := range rejected {
		if p, err := ParsePartition(tc.in); err == nil {
			t.Errorf("%s: ParsePartition(%q) = %v, want an error", tc.name, tc.in, p)
		}
	}
}
