package des

import (
	"reflect"
	"testing"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/fault"
)

func TestChaosReplayDeterminism(t *testing.T) {
	cfg := Config{
		N:        48,
		Protocol: ProtoSifter,
		Seed:     1201,
		Net:      NetConfig{Latency: LatencyDist{Kind: LatExp, Mean: time.Millisecond}, Loss: 0.05},
		Chaos: ChaosConfig{
			ProcRate:      0.25,
			ProcRestart:   RestartAmnesiac,
			ServerWindows: 1,
			ServerRestart: RestartDurable,
			MeanDown:      2 * time.Millisecond,
		},
		Retry: RetryPolicy{Jitter: 0.3},
	}
	a, errA := Run(cfg)
	b, errB := Run(cfg)
	requireClean(t, a, errA)
	requireClean(t, b, errB)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed and chaos config gave different results:\n%+v\nvs\n%+v", a, b)
	}
	if a.Crashes == 0 || a.Restarts != a.Crashes {
		t.Fatalf("chaos accounting implausible: %+v", a)
	}
	cfg.Seed = 1202
	c, errC := Run(cfg)
	requireClean(t, c, errC)
	if reflect.DeepEqual(a.Steps, c.Steps) && a.VirtualTime == c.VirtualTime {
		t.Fatalf("different seeds gave identical chaos executions")
	}
}

func TestExplicitScheduleMatchesMaterializedPlan(t *testing.T) {
	// Materializing the plan up front and feeding it back as an explicit
	// schedule must reproduce the run bit-for-bit: ChaosSchedule is the
	// contract that repro builders and shrinkers see what Run does.
	cfg := Config{
		N:        32,
		Protocol: ProtoPriorityMax,
		Seed:     77,
		Chaos: ChaosConfig{
			ProcRate:      0.3,
			ProcRestart:   RestartDurable,
			ServerWindows: 2,
			ServerRestart: RestartDurable,
			MeanDown:      time.Millisecond,
		},
	}
	events, err := cfg.ChaosSchedule()
	if err != nil {
		t.Fatalf("ChaosSchedule: %v", err)
	}
	if len(events) == 0 {
		t.Fatalf("plan materialized no crashes at rate 0.3 over 32 processes")
	}
	explicit := cfg
	explicit.Chaos = ChaosConfig{Events: events}
	a, errA := Run(cfg)
	b, errB := Run(explicit)
	requireClean(t, a, errA)
	requireClean(t, b, errB)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("explicit schedule diverged from its plan:\n%+v\nvs\n%+v", a, b)
	}
}

func TestProcDurableRestartResumes(t *testing.T) {
	// Crash a third of the processes durably mid-run: they must resume
	// their parked state machines (no session resync) and everyone still
	// decides cleanly.
	var events []ChaosEvent
	for i := int32(0); i < 16; i += 3 {
		events = append(events, ChaosEvent{
			Target: i, At: time.Duration(i) * time.Millisecond / 2, Down: 4 * time.Millisecond, Restart: RestartDurable,
		})
	}
	res, err := Run(Config{
		N:        16,
		Protocol: ProtoSifter,
		Seed:     21,
		Chaos:    ChaosConfig{Events: events},
	})
	requireClean(t, res, err)
	if res.Crashes != int64(len(events)) || res.Restarts != res.Crashes {
		t.Fatalf("crashes/restarts = %d/%d, want %d each", res.Crashes, res.Restarts, len(events))
	}
	if res.Resyncs != 0 {
		t.Fatalf("durable restarts performed %d session resyncs, want 0", res.Resyncs)
	}
	if res.Wipes != 0 {
		t.Fatalf("process crashes wiped the server %d times", res.Wipes)
	}
}

func TestProcAmnesiacRestartResyncs(t *testing.T) {
	// Amnesiac processes restart the protocol from scratch under a new
	// incarnation: each live restart shows up as a session resync, and
	// agreement must still hold (the monitors watch exactly that).
	events := []ChaosEvent{
		{Target: 2, At: 1 * time.Millisecond, Down: 3 * time.Millisecond, Restart: RestartAmnesiac},
		{Target: 7, At: 2 * time.Millisecond, Down: 2 * time.Millisecond, Restart: RestartAmnesiac},
		{Target: 11, At: 500 * time.Microsecond, Down: 5 * time.Millisecond, Restart: RestartAmnesiac},
	}
	res, err := Run(Config{
		N:        16,
		Protocol: ProtoSifterHalf,
		Seed:     33,
		Chaos:    ChaosConfig{Events: events},
	})
	requireClean(t, res, err)
	if res.Resyncs == 0 {
		t.Fatalf("amnesiac restarts performed no session resyncs: %+v", res)
	}
	if res.Resyncs > int64(len(events)) {
		t.Fatalf("resyncs = %d > %d scheduled amnesiac crashes", res.Resyncs, len(events))
	}
}

func TestServerCrashWindowHeals(t *testing.T) {
	// The server is down for a fixed window: in-flight RPCs are discarded
	// and clients must ride the retry policy through it. The run finishes
	// after the window with retransmissions and chaos drops on the books.
	res, err := Run(Config{
		N:        16,
		Protocol: ProtoSifter,
		Seed:     19,
		Net:      NetConfig{Latency: LatencyDist{Kind: LatFixed, Mean: time.Millisecond}},
		Chaos: ChaosConfig{Events: []ChaosEvent{
			{Target: ServerNode, At: time.Millisecond, Down: 10 * time.Millisecond, Restart: RestartDurable},
		}},
	})
	requireClean(t, res, err)
	if res.ChaosDrops == 0 {
		t.Fatalf("server crash window discarded no deliveries: %+v", res)
	}
	if res.Retransmits == 0 {
		t.Fatalf("clients crossed a server outage without retransmitting: %+v", res)
	}
	if res.VirtualTime < 11*time.Millisecond {
		t.Fatalf("run finished at %v, inside the server outage [1ms, 11ms)", res.VirtualTime)
	}
	if res.Wipes != 0 {
		t.Fatalf("durable server restart wiped registers: %+v", res)
	}
}

func TestGiveUpSurfacesGracefulDegradation(t *testing.T) {
	// With a bounded retry budget and a server outage longer than the
	// budget can bridge, processes give up instead of hanging the event
	// loop, and their outcome is surfaced per process.
	res, err := Run(Config{
		N:        8,
		Protocol: ProtoSifter,
		Seed:     101,
		Net:      NetConfig{Latency: LatencyDist{Kind: LatFixed, Mean: time.Millisecond}},
		Chaos: ChaosConfig{Events: []ChaosEvent{
			{Target: ServerNode, At: 500 * time.Microsecond, Down: time.Second, Restart: RestartDurable},
		}},
		Retry: RetryPolicy{MaxRetries: 3},
	})
	if err != nil {
		t.Fatalf("give-up run errored instead of degrading gracefully: %v", err)
	}
	if res.GaveUp == 0 {
		t.Fatalf("second-long outage with 3 retries: nobody gave up: %+v", res)
	}
	if res.AllDecided {
		t.Fatalf("AllDecided with %d processes given up", res.GaveUp)
	}
	gaveUp := 0
	for _, o := range res.Outcomes {
		if o == OutcomeGaveUp {
			gaveUp++
		}
	}
	if gaveUp != res.GaveUp {
		t.Fatalf("Outcomes records %d give-ups, Result says %d", gaveUp, res.GaveUp)
	}
	// Giving up must not break safety for whoever did decide.
	if len(res.Violations) > 0 {
		t.Fatalf("give-up run violated safety: %v", res.Violations)
	}
}

func TestServerAmnesiaIsWeakenedRegime(t *testing.T) {
	// An amnesiac server restart wipes every register — the atomic
	// shared-memory model the proofs assume is gone, so this regime is
	// allowed (expected, even) to trip the safety monitors. The test pins
	// the mechanics: the wipe happens, sessions re-form via the
	// gap-accepting dedup rule, and the run still terminates one way or
	// the other rather than hanging.
	// A wipe at 40ms lands in the adopt-commit window of the ~55ms run,
	// where erasing the conflict-detector flags splits decisions.
	found := false
	for seed := uint64(1); seed <= 20; seed++ {
		res, _ := Run(Config{
			N:        16,
			Protocol: ProtoSifter,
			Seed:     seed,
			Net:      NetConfig{Latency: LatencyDist{Kind: LatExp, Mean: time.Millisecond}},
			Chaos: ChaosConfig{Events: []ChaosEvent{
				{Target: ServerNode, At: 40 * time.Millisecond, Down: 2 * time.Millisecond, Restart: RestartAmnesiac},
			}},
			MaxEvents: 1 << 20,
		})
		if res.Wipes != 1 {
			t.Fatalf("seed %d: wipes = %d, want 1", seed, res.Wipes)
		}
		if len(res.Violations) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no seed in 1..20 tripped a monitor under server amnesia; the weakened regime is not weakened")
	}
}

func TestChaosScheduleValidation(t *testing.T) {
	nan := func() float64 { z := 0.0; return z / z }()
	bad := []struct {
		name string
		cfg  Config
	}{
		{"NaN proc rate", Config{N: 4, Protocol: ProtoSifter, Chaos: ChaosConfig{ProcRate: nan}}},
		{"proc rate above one", Config{N: 4, Protocol: ProtoSifter, Chaos: ChaosConfig{ProcRate: 1.5}}},
		{"negative windows", Config{N: 4, Protocol: ProtoSifter, Chaos: ChaosConfig{ServerWindows: -1}}},
		{"event target out of range", Config{N: 4, Protocol: ProtoSifter,
			Chaos: ChaosConfig{Events: []ChaosEvent{{Target: 4, At: 0, Down: time.Millisecond}}}}},
		{"event target below server", Config{N: 4, Protocol: ProtoSifter,
			Chaos: ChaosConfig{Events: []ChaosEvent{{Target: -2, At: 0, Down: time.Millisecond}}}}},
		{"event never heals", Config{N: 4, Protocol: ProtoSifter,
			Chaos: ChaosConfig{Events: []ChaosEvent{{Target: 0, At: 0, Down: 0}}}}},
		{"negative crash time", Config{N: 4, Protocol: ProtoSifter,
			Chaos: ChaosConfig{Events: []ChaosEvent{{Target: 0, At: -time.Millisecond, Down: time.Millisecond}}}}},
		{"NaN jitter", Config{N: 4, Protocol: ProtoSifter, Retry: RetryPolicy{Jitter: nan}}},
		{"jitter of one", Config{N: 4, Protocol: ProtoSifter, Retry: RetryPolicy{Jitter: 1}}},
		{"backoff below one", Config{N: 4, Protocol: ProtoSifter, Retry: RetryPolicy{Backoff: 0.5}}},
		{"negative retries", Config{N: 4, Protocol: ProtoSifter, Retry: RetryPolicy{MaxRetries: -1}}},
		{"negative RTO", Config{N: 4, Protocol: ProtoSifter, Retry: RetryPolicy{RTO: -time.Millisecond}}},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(tt.cfg); err == nil {
				t.Fatalf("config %+v validated", tt.cfg)
			}
		})
	}
}

func TestParseChaosSpec(t *testing.T) {
	got, err := ParseChaosSpec("proc:0.2,server:1")
	if err != nil || got.ProcRate != 0.2 || got.ServerWindows != 1 {
		t.Fatalf("ParseChaosSpec = %+v, %v", got, err)
	}
	if _, err := ParseChaosSpec("server:3"); err != nil {
		t.Fatalf("server-only spec rejected: %v", err)
	}
	for _, bad := range []string{"", "proc", "proc:0", "proc:1.5", "proc:NaN", "server:0", "server:-1", "disk:1", "proc:0.2;server:1"} {
		if _, err := ParseChaosSpec(bad); err == nil {
			t.Errorf("ParseChaosSpec(%q) succeeded", bad)
		}
	}
}

func TestShrinkChaosFindsMinimalSchedule(t *testing.T) {
	// Synthetic failure: reproduces iff the schedule still contains a
	// server crash. ddmin must strip all twelve process crashes and hand
	// back the lone server event with its downtime halved to the floor.
	var events []ChaosEvent
	for i := int32(0); i < 12; i++ {
		events = append(events, ChaosEvent{Target: i, At: time.Duration(i) * time.Millisecond, Down: 8 * time.Millisecond, Restart: RestartDurable})
	}
	events = append(events, ChaosEvent{Target: ServerNode, At: 5 * time.Millisecond, Down: 8 * time.Millisecond, Restart: RestartAmnesiac})
	calls := 0
	shrunk := fault.Shrink(normalizeChaos(events), 512, false, func(cand []ChaosEvent) bool {
		calls++
		for _, e := range cand {
			if e.Target == ServerNode {
				return true
			}
		}
		return false
	})
	if len(shrunk) != 1 || shrunk[0].Target != ServerNode {
		t.Fatalf("shrunk to %v, want the lone server event", shrunk)
	}
	if shrunk[0].Down != time.Microsecond {
		t.Fatalf("downtime minimized to %v, want the 1us floor", shrunk[0].Down)
	}
	if calls > 512 {
		t.Fatalf("shrinker exceeded its budget: %d calls", calls)
	}
	// The DES shrink must never call repro with an empty candidate.
	fault.Shrink(events[:1], 64, false, func(cand []ChaosEvent) bool {
		if len(cand) == 0 {
			t.Fatalf("repro called with empty schedule")
		}
		return false
	})
}

// findWeakenedFailure searches seeds for a server-amnesia run that trips
// the safety monitors, returning the config and its violations.
func findWeakenedFailure(t *testing.T) (Config, []ChaosEvent, Result) {
	t.Helper()
	for seed := uint64(1); seed <= 200; seed++ {
		cfg := Config{
			N:        16,
			Protocol: ProtoSifter,
			Seed:     seed,
			Net:      NetConfig{Latency: LatencyDist{Kind: LatExp, Mean: time.Millisecond}},
			Chaos: ChaosConfig{
				// Two windows stratified across the run's ~55ms span so
				// one tends to land in the adopt-commit tail, where a
				// register wipe can split decisions.
				ServerWindows: 2,
				ServerRestart: RestartAmnesiac,
				Horizon:       48 * time.Millisecond,
				MeanDown:      2 * time.Millisecond,
			},
			MaxEvents: 1 << 20,
		}
		res, _ := Run(cfg)
		if len(res.Violations) > 0 {
			events, err := cfg.ChaosSchedule()
			if err != nil {
				t.Fatalf("ChaosSchedule: %v", err)
			}
			return cfg, events, res
		}
	}
	t.Skip("no seed in 1..200 tripped a monitor under server amnesia")
	return Config{}, nil, Result{}
}

func TestFaultReproRoundTripAndReplay(t *testing.T) {
	cfg, events, res := findWeakenedFailure(t)

	// Shrink against the real engine: the failure is "any violation".
	shrunk := fault.Shrink(events, 64, false, func(cand []ChaosEvent) bool {
		c := cfg
		c.Chaos = ChaosConfig{Events: cand}
		r, _ := Run(c)
		return len(r.Violations) > 0
	})
	c := cfg
	c.Chaos = ChaosConfig{Events: shrunk}
	final, _ := Run(c)
	if len(final.Violations) == 0 {
		t.Fatalf("shrunk schedule no longer reproduces")
	}

	repro := BuildRepro(c, shrunk, final.Violations)
	data, err := repro.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back, err := fault.DecodeRepro[ReproRun](data)
	if err != nil {
		t.Fatalf("DecodeRepro: %v", err)
	}
	if _, err := Replay(back); err != nil {
		t.Fatalf("Replay: %v", err)
	}

	// Byte-stability: encode → decode → encode is the identity.
	data2, err := back.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if string(data) != string(data2) {
		t.Fatalf("artifact is not byte-stable across a decode/encode cycle")
	}

	// A tampered artifact must fail replay, not silently pass.
	back.Run.Seed++
	if _, err := Replay(back); err == nil {
		t.Fatalf("tampered artifact replayed clean")
	}
	back.Run.Seed--

	// Save/Load round trip through the filesystem.
	path := t.TempDir() + "/repro.json"
	if err := repro.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if repro.SavedPath != path {
		t.Fatalf("Save recorded path %q, want %q", repro.SavedPath, path)
	}
	loaded, err := fault.LoadRepro[ReproRun](path)
	if err != nil {
		t.Fatalf("LoadRepro: %v", err)
	}
	if _, err := Replay(loaded); err != nil {
		t.Fatalf("replay of loaded artifact: %v", err)
	}
	if !reflect.DeepEqual(loaded.Violations, repro.Violations) {
		t.Fatalf("violations did not survive the filesystem round trip")
	}
	if res.Wipes == 0 {
		t.Fatalf("weakened run recorded no wipes: %+v", res)
	}
}

func TestDedupExactlyOnceAcrossRetransmits(t *testing.T) {
	// Force duplicate deliveries: a fixed 1ms one-way latency means a 2ms
	// round trip, so a 1.5ms RTO retransmits every operation before its
	// reply lands — every op reaches the server at least twice. The
	// partition adds retransmit-after-heal traffic on top. Exactly-once
	// means the applied-op count equals the logical step count exactly,
	// with the surplus absorbed by the dedup cache.
	res, err := Run(Config{
		N:        16,
		Protocol: ProtoSifter,
		Seed:     7,
		Net: NetConfig{
			Latency:    LatencyDist{Kind: LatFixed, Mean: time.Millisecond},
			Partitions: []Partition{{From: 3 * time.Millisecond, Until: 10 * time.Millisecond, Frac: 0.5}},
		},
		Retry: RetryPolicy{RTO: 1500 * time.Microsecond},
	})
	requireClean(t, res, err)
	if res.OpsApplied != res.TotalSteps() {
		t.Fatalf("applied %d ops for %d logical steps; exactly-once broken", res.OpsApplied, res.TotalSteps())
	}
	if res.DupDrops == 0 {
		t.Fatalf("sub-RTT timeout produced no duplicates to absorb: %+v", res)
	}
	if res.MsgsBlocked == 0 {
		t.Fatalf("partition blocked no messages: %+v", res)
	}
	if res.Retransmits == 0 {
		t.Fatalf("no retransmissions recorded: %+v", res)
	}
}

func TestDedupExactlyOnceUnderChaos(t *testing.T) {
	// The exactly-once ledger under crashes: durable restarts retransmit
	// their outstanding request (it always completes), amnesiac restarts
	// open a new incarnation (whose opSync resyncs are applied ops but
	// not protocol steps) and may abandon the old incarnation's single
	// outstanding op before the server ever saw it. So as long as the
	// server never wipes: no op applies twice (applied <= issued), and
	// the only ops that can fail to apply are the abandoned ones — at
	// most one per crash.
	res, err := Run(Config{
		N:        24,
		Protocol: ProtoPriorityMax,
		Seed:     13,
		Net:      NetConfig{Latency: LatencyDist{Kind: LatExp, Mean: time.Millisecond}, Loss: 0.1},
		Chaos: ChaosConfig{
			ProcRate:      0.4,
			ProcRestart:   RestartAmnesiac,
			ServerWindows: 1,
			ServerRestart: RestartDurable,
			Horizon:       20 * time.Millisecond,
			MeanDown:      3 * time.Millisecond,
		},
	})
	requireClean(t, res, err)
	issued := res.TotalSteps() + res.Resyncs
	if res.OpsApplied > issued {
		t.Fatalf("applied %d ops for %d issued; some op applied twice", res.OpsApplied, issued)
	}
	if deficit := issued - res.OpsApplied; deficit > res.Crashes {
		t.Fatalf("%d issued ops never applied across %d crashes; more than the abandoned in-flight ops",
			deficit, res.Crashes)
	}
	if res.Crashes == 0 {
		t.Fatalf("chaos plan materialized no crashes: %+v", res)
	}
}
