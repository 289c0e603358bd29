package des

import (
	"reflect"
	"testing"
	"time"
)

// pinCells are the network and chaos settings TestRunPinnedCounts runs
// every protocol under.
var pinCells = []struct {
	name  string
	net   NetConfig
	chaos ChaosConfig
}{
	{"none", NetConfig{}, ChaosConfig{}},
	{"loss+partition", NetConfig{Loss: 0.05, Partitions: []Partition{{From: 2 * time.Millisecond, Until: 20 * time.Millisecond, Frac: 0.25}}}, ChaosConfig{}},
	{"proc-durable", NetConfig{}, ChaosConfig{ProcRate: 0.2, ProcRestart: RestartDurable}},
	{"proc-amnesiac", NetConfig{}, ChaosConfig{ProcRate: 0.2, ProcRestart: RestartAmnesiac}},
	{"server-durable", NetConfig{}, ChaosConfig{ServerWindows: 2, ServerRestart: RestartDurable}},
	{"server-amnesiac", NetConfig{}, ChaosConfig{ServerWindows: 2, ServerRestart: RestartAmnesiac}},
}

// pinCounts is every counter of a Result that TestRunPinnedCounts pins.
type pinCounts struct {
	TotalSteps, MaxSteps, Events                      int64
	Sent, Delivered, Dropped, Blocked                 int64
	Retransmits, Resyncs, Wipes, OpsApplied, DupDrops int64
	VirtualTime                                       int64
	Phases, Decision                                  int
	AllDecided                                        bool
}

func countsOf(r Result) pinCounts {
	return pinCounts{
		r.TotalSteps(), r.MaxSteps(), r.Events,
		r.MsgsSent, r.MsgsDelivered, r.MsgsDropped, r.MsgsBlocked,
		r.Retransmits, r.Resyncs, r.Wipes, r.OpsApplied, r.DupDrops,
		int64(r.VirtualTime), r.Phases, r.Decision, r.AllDecided,
	}
}

// TestRunPinnedCounts pins every protocol under every pinCells setting
// at n=64, seed 2, epsilon 1/2 (large enough that some runs need a
// second phase and the amnesiac server wipes trip the monitors): every
// Result counter and each violation's monitor and detail, in order. The
// golden tables and DES_E18.md/DES_E21.md only report per-cell
// aggregates; this catches a change in any single run.
func TestRunPinnedCounts(t *testing.T) {
	want := []struct {
		cell, proto string
		counts      pinCounts
		violations  []string
	}{
		{"none", "sifter", pinCounts{2240, 35, 4480, 4480, 4480, 0, 0, 0, 0, 0, 2240, 0, 97898566, 2, 0, true}, []string{}},
		{"none", "sifter-half", pinCounts{1344, 21, 2688, 2688, 2688, 0, 0, 0, 0, 0, 1344, 0, 57562235, 1, 1, true}, []string{}},
		{"none", "priority-max", pinCounts{1088, 17, 2176, 2176, 2176, 0, 0, 0, 0, 0, 1088, 0, 58495922, 1, 1, true}, []string{}},
		{"loss+partition", "sifter", pinCounts{1152, 18, 3667, 2517, 2369, 119, 29, 151, 0, 0, 1152, 62, 133565177, 1, 1, true}, []string{}},
		{"loss+partition", "sifter-half", pinCounts{1344, 21, 4289, 2945, 2776, 140, 29, 174, 0, 0, 1344, 84, 180165554, 1, 0, true}, []string{}},
		{"loss+partition", "priority-max", pinCounts{1088, 17, 3471, 2382, 2242, 111, 29, 144, 0, 0, 1088, 62, 181537893, 1, 0, true}, []string{}},
		{"proc-durable", "sifter", pinCounts{1169, 35, 3588, 2376, 2376, 0, 0, 20, 0, 0, 1169, 20, 99098658, 2, 0, true}, []string{}},
		{"proc-durable", "sifter-half", pinCounts{1344, 21, 4111, 2725, 2725, 0, 0, 20, 0, 0, 1344, 20, 77274174, 1, 1, true}, []string{}},
		{"proc-durable", "priority-max", pinCounts{1088, 17, 3340, 2212, 2212, 0, 0, 19, 0, 0, 1088, 19, 78276237, 1, 1, true}, []string{}},
		{"proc-amnesiac", "sifter", pinCounts{1264, 34, 3861, 2563, 2563, 0, 0, 6, 12, 0, 1276, 6, 83425811, 1, 0, true}, []string{}},
		{"proc-amnesiac", "sifter-half", pinCounts{1479, 41, 4515, 2995, 2995, 0, 0, 6, 13, 0, 1492, 6, 92793536, 1, 1, true}, []string{}},
		{"proc-amnesiac", "priority-max", pinCounts{1201, 34, 3674, 2434, 2434, 0, 0, 4, 12, 0, 1213, 4, 90115838, 1, 1, true}, []string{}},
		{"server-durable", "sifter", pinCounts{2240, 35, 6829, 4538, 4538, 0, 0, 53, 0, 0, 2240, 6, 99084330, 2, 1, true}, []string{}},
		{"server-durable", "sifter-half", pinCounts{1344, 21, 4129, 2737, 2737, 0, 0, 45, 0, 0, 1344, 4, 77140220, 1, 1, true}, []string{}},
		{"server-durable", "priority-max", pinCounts{1088, 17, 3324, 2208, 2208, 0, 0, 30, 0, 0, 1088, 2, 61725113, 1, 1, true}, []string{}},
		{"server-amnesiac", "sifter", pinCounts{2204, 36, 6720, 4466, 4466, 0, 0, 53, 0, 2, 2204, 6, 103955701, 2, 1, true}, []string{
			"ac-coherence: phase 0: 1 committed but process 6 got 0",
			"ac-coherence: phase 0: 1 committed but process 14 got 0",
			"ac-coherence: phase 0: 1 committed but process 37 got 0",
			"ac-coherence: phase 0: 1 committed but process 42 got 0",
			"ac-coherence: phase 0: 1 committed but process 19 got 0",
			"ac-coherence: phase 0: 1 committed but process 36 got 0",
			"ac-coherence: phase 0: 1 committed but process 54 got 0",
			"ac-coherence: phase 0: 1 committed but process 31 got 0",
			"ac-coherence: phase 0: 1 committed but process 23 got 0",
			"ac-coherence: phase 0: 1 committed but process 61 got 0",
			"ac-coherence: phase 0: 1 committed but process 7 got 0",
			"ac-coherence: phase 0: 1 committed but process 32 got 0",
		}},
		{"server-amnesiac", "sifter-half", pinCounts{1365, 42, 4190, 2778, 2778, 0, 0, 45, 0, 2, 1365, 4, 84872638, 2, 1, true}, []string{
			"agreement: process 0 decided 1 but process 23 decided 0",
			"ac-validity: phase 0: process 23 got back 0, which nobody proposed",
			"ac-coherence: phase 0: 1 committed but process 23 got 0",
			"ac-convergence: phase 0: all proposals were 1 yet process 23 adopted",
		}},
		{"server-amnesiac", "priority-max", pinCounts{1122, 34, 3432, 2278, 2278, 0, 0, 31, 0, 2, 1122, 3, 83191087, 2, 1, true}, []string{
			"agreement: process 0 decided 1 but process 5 decided 0",
			"agreement: process 0 decided 1 but process 52 decided 0",
			"ac-validity: phase 0: process 52 got back 0, which nobody proposed",
			"ac-coherence: phase 0: 1 committed but process 52 got 0",
			"ac-convergence: phase 0: all proposals were 1 yet process 52 adopted",
			"ac-validity: phase 0: process 5 got back 0, which nobody proposed",
			"ac-coherence: phase 0: 1 committed but process 5 got 0",
			"ac-convergence: phase 0: all proposals were 1 yet process 5 adopted",
		}},
	}
	i := 0
	for _, c := range pinCells {
		for _, proto := range Protocols() {
			w := want[i]
			i++
			if w.cell != c.name || w.proto != proto {
				t.Fatalf("table row %d is %s/%s, want %s/%s", i-1, w.cell, w.proto, c.name, proto)
			}
			res, err := Run(Config{N: 64, Protocol: proto, Seed: 2, Epsilon: 0.5, Net: c.net, Chaos: c.chaos})
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, proto, err)
			}
			if got := countsOf(res); got != w.counts {
				t.Errorf("%s/%s: counts\n got %+v\nwant %+v", c.name, proto, got, w.counts)
			}
			got := []string{}
			for _, v := range res.Violations {
				got = append(got, v.String())
			}
			if !reflect.DeepEqual(got, w.violations) {
				t.Errorf("%s/%s: violations\n got %q\nwant %q", c.name, proto, got, w.violations)
			}
		}
	}
	if i != len(want) {
		t.Fatalf("ran %d cells, table has %d", i, len(want))
	}
}

// TestRunPhaseBudgetIsNontermination pins the path where a process
// adopts in its last allowed phase: the run stops with an error and one
// nontermination violation instead of letting the process decide.
func TestRunPhaseBudgetIsNontermination(t *testing.T) {
	res, err := Run(Config{N: 16, Protocol: ProtoSifter, Seed: 10, Epsilon: 0.99, MaxPhases: 1})
	const wantErr = "des: process 3 exceeded the phase budget 1 without committing"
	if err == nil || err.Error() != wantErr {
		t.Fatalf("err = %v, want %q", err, wantErr)
	}
	want := []string{"nontermination: process 3 exceeded the phase budget 1"}
	var got []string
	for _, v := range res.Violations {
		got = append(got, v.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("violations = %q, want %q", got, want)
	}
	if res.Phases != 2 || res.AllDecided {
		t.Errorf("Phases = %d, AllDecided = %v; want 2, false", res.Phases, res.AllDecided)
	}
	undecided := 0
	for _, o := range res.Outcomes {
		if o != OutcomeDecided {
			undecided++
		}
	}
	if undecided != 13 {
		t.Errorf("%d of %d outcomes are not decided, want 13", undecided, len(res.Outcomes))
	}
}

// TestRunPinnedScale pins both protocols at the perfbench des-scale
// configuration: n=10k, exp(1ms) latency, 1% loss, seed 1. The n=64 pins
// never reach a tick like this one's first retransmission deadline,
// where all 10k initial timers tie on the same virtual nanosecond, so
// this is the pin that checks the queue's tiebreak at scale. Its
// Events/OpsApplied is perfbench's des.events_per_op.
func TestRunPinnedScale(t *testing.T) {
	if testing.Short() {
		t.Skip("n=10k runs; skipped under -short")
	}
	want := map[string]pinCounts{
		ProtoSifter:      {240000, 24, 729501, 488808, 483794, 5014, 0, 5724, 0, 0, 240000, 3247, 109976485, 1, 0, true},
		ProtoPriorityMax: {210000, 21, 638246, 427654, 423263, 4391, 0, 4994, 0, 0, 210000, 2797, 111760794, 1, 0, true},
	}
	for _, proto := range []string{ProtoSifter, ProtoPriorityMax} {
		res, err := Run(Config{N: 10_000, Protocol: proto, Seed: 1,
			Net: NetConfig{Latency: LatencyDist{Kind: LatExp, Mean: time.Millisecond}, Loss: 0.01}})
		requireClean(t, res, err)
		if got := countsOf(res); got != want[proto] {
			t.Errorf("%s: counts\n got %+v\nwant %+v", proto, got, want[proto])
		}
	}
}
