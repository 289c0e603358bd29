package des

// The chaos layer ports the PR 4 fault model into the message-passing
// simulator: seeded deterministic crash schedules for protocol processes
// and for the memory-server node, with durable (state survives) and
// amnesiac (state lost) restart variants, plus the client-side retry
// policy that survives the resulting RPC timeouts. Everything here is a
// pure function of the configuration — chaos randomness comes from its
// own named fork of the master seed, disjoint from both the network's
// and every process's protocol stream, so the chaos adversary stays
// oblivious and every run replays byte-identically.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// ServerNode is the chaos-schedule target naming the memory server.
const ServerNode int32 = serverID

// RestartKind selects what survives a crash.
type RestartKind uint8

const (
	// RestartDurable brings the node back with its state intact: a
	// process resumes its phase machine exactly where the crash parked
	// it (retransmitting its outstanding request, whose reply may have
	// been lost while it was down); the server keeps every register and
	// its dedup cache.
	RestartDurable RestartKind = iota
	// RestartAmnesiac loses all local state. A process restarts its
	// protocol from the top under a fresh incarnation: its RNG is
	// reseeded from an incarnation-keyed fork of its base seed, it
	// re-establishes its RPC session with the server (a resync
	// handshake), and re-reads the persistent shared registers as the
	// protocol re-runs — the PR 4 crash-recovery-with-amnesia semantics
	// in message-passing form. An amnesiac *server* restart instead
	// wipes every register and the dedup cache; that breaks the atomic
	// shared-memory model the proofs assume, so safety violations are
	// expected findings there, not bugs.
	RestartAmnesiac
)

func (k RestartKind) String() string {
	switch k {
	case RestartDurable:
		return "durable"
	case RestartAmnesiac:
		return "amnesiac"
	}
	return fmt.Sprintf("RestartKind(%d)", int(k))
}

// MarshalText encodes the kind as its name, so artifacts stay readable
// and stable across enum reordering.
func (k RestartKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name.
func (k *RestartKind) UnmarshalText(b []byte) (err error) {
	*k, err = ParseRestartKind(string(b))
	return err
}

// ParseRestartKind parses "durable" or "amnesiac".
func ParseRestartKind(s string) (RestartKind, error) {
	switch s {
	case "durable":
		return RestartDurable, nil
	case "amnesiac":
		return RestartAmnesiac, nil
	}
	return 0, fmt.Errorf("des: unknown restart kind %q (want durable or amnesiac)", s)
}

// ChaosEvent is one scheduled crash: Target goes down at virtual time At
// for Down, then comes back under the Restart variant. While a node is
// down every message delivered to it is discarded; clients recover
// through the retry policy.
type ChaosEvent struct {
	// Target is a process id in [0, n), or ServerNode (-1) for the
	// memory server.
	Target int32         `json:"target"`
	At     time.Duration `json:"at_ns"`
	Down   time.Duration `json:"down_ns"`
	// Restart selects durable or amnesiac recovery for this crash.
	Restart RestartKind `json:"restart"`
}

func (e ChaosEvent) String() string {
	who := fmt.Sprintf("proc %d", e.Target)
	if e.Target == ServerNode {
		who = "server"
	}
	return fmt.Sprintf("%s down [%v, %v) restart %s", who, e.At, e.At+e.Down, e.Restart)
}

// Halved implements fault.Halver: the downtime halves toward a 1us
// floor. The crash time stays put.
func (e ChaosEvent) Halved() (ChaosEvent, bool) {
	if e.Down <= time.Microsecond {
		return e, false
	}
	e.Down = max(e.Down/2, time.Microsecond)
	return e, true
}

// ChaosConfig describes the crash schedule of a run: either an explicit
// event list, or a seeded plan the engine materializes deterministically
// from the run seed. The zero value means no crashes.
type ChaosConfig struct {
	// Events is an explicit crash schedule; when non-empty it is used
	// verbatim and the plan fields below are ignored. Repro artifacts
	// always record the materialized explicit schedule.
	Events []ChaosEvent

	// ProcRate is the fraction of processes (Bernoulli, per process)
	// that crash once at a uniform time in [0, Horizon).
	ProcRate float64
	// ProcRestart is the restart variant for process crashes.
	ProcRestart RestartKind
	// ServerWindows is the number of memory-server crash windows,
	// stratified across [0, Horizon) so they tend not to overlap.
	ServerWindows int
	// ServerRestart is the restart variant for server crashes; amnesiac
	// wipes the registers (the weakened, safety-breaking regime).
	ServerRestart RestartKind
	// Horizon bounds crash times (0 = 40ms). Crashes stop after it, so
	// termination stays almost-sure.
	Horizon time.Duration
	// MeanDown is the mean crash duration, exponentially distributed
	// (0 = 8ms).
	MeanDown time.Duration
}

// Active reports whether the configuration schedules any crashes.
func (c ChaosConfig) Active() bool {
	return len(c.Events) > 0 || c.ProcRate > 0 || c.ServerWindows > 0
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if !c.Active() {
		return c
	}
	if c.Horizon <= 0 {
		c.Horizon = 40 * time.Millisecond
	}
	if c.MeanDown <= 0 {
		c.MeanDown = 8 * time.Millisecond
	}
	return c
}

func (c ChaosConfig) validate(n int) error {
	// The >=/<= shapes deliberately reject NaN, which would otherwise
	// slip through naive range checks.
	if !(c.ProcRate >= 0 && c.ProcRate <= 1) {
		return fmt.Errorf("des: chaos proc crash rate must be in [0, 1], got %g", c.ProcRate)
	}
	if c.ServerWindows < 0 {
		return fmt.Errorf("des: chaos server windows must be non-negative, got %d", c.ServerWindows)
	}
	if c.ProcRestart > RestartAmnesiac || c.ServerRestart > RestartAmnesiac {
		return fmt.Errorf("des: unknown restart kind in chaos config")
	}
	for i, e := range c.Events {
		if e.Target < ServerNode || int(e.Target) >= n {
			return fmt.Errorf("des: chaos event %d targets node %d (want %d..%d)", i, e.Target, ServerNode, n-1)
		}
		if e.At < 0 {
			return fmt.Errorf("des: chaos event %d crashes at negative time %v", i, e.At)
		}
		if e.Down <= 0 {
			return fmt.Errorf("des: chaos event %d has non-positive downtime %v; crashes must heal", i, e.Down)
		}
		if e.Restart > RestartAmnesiac {
			return fmt.Errorf("des: chaos event %d has unknown restart kind %d", i, e.Restart)
		}
	}
	return nil
}

// normalizeChaos sorts a schedule into the canonical order the engine
// consumes and artifacts record: (At, Target, Down).
func normalizeChaos(events []ChaosEvent) []ChaosEvent {
	out := append([]ChaosEvent(nil), events...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Target != out[j].Target {
			return out[i].Target < out[j].Target
		}
		return out[i].Down < out[j].Down
	})
	return out
}

// materializeChaos turns a plan into the explicit schedule for one run:
// each process crashes with probability ProcRate at a uniform time in
// [0, Horizon) for an exponential downtime; server windows are
// stratified across the horizon. Deterministic in (plan, rng state).
func materializeChaos(c ChaosConfig, n int, rng *xrand.Rand) []ChaosEvent {
	if len(c.Events) > 0 {
		return normalizeChaos(c.Events)
	}
	c = c.withDefaults()
	horizon := float64(c.Horizon.Nanoseconds())
	mean := float64(c.MeanDown.Nanoseconds())
	expDown := func() time.Duration {
		d := time.Duration(-mean * math.Log(1-rng.Float64()))
		if d < time.Microsecond {
			d = time.Microsecond
		}
		return d
	}
	var events []ChaosEvent
	if c.ProcRate > 0 {
		for i := 0; i < n; i++ {
			if !rng.Bernoulli(c.ProcRate) {
				continue
			}
			events = append(events, ChaosEvent{
				Target:  int32(i),
				At:      time.Duration(rng.Float64() * horizon),
				Down:    expDown(),
				Restart: c.ProcRestart,
			})
		}
	}
	for w := 0; w < c.ServerWindows; w++ {
		stride := horizon / float64(c.ServerWindows)
		at := float64(w)*stride + rng.Float64()*stride
		events = append(events, ChaosEvent{
			Target:  ServerNode,
			At:      time.Duration(at),
			Down:    expDown(),
			Restart: c.ServerRestart,
		})
	}
	return normalizeChaos(events)
}

// ChaosSchedule materializes the explicit crash schedule this
// configuration's run will execute — a pure function of the Config, so
// callers (repro builders, shrinkers) see exactly what Run will do.
func (c Config) ChaosSchedule() ([]ChaosEvent, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	if !c.Chaos.Active() {
		return nil, nil
	}
	root := xrand.New(c.Seed)
	root.ForkNamed(0x4e57) // network fork: keep draw order aligned with Run
	root.ForkNamed(0xa190) // per-process fork
	root.ForkNamed(0x4a77) // retry-jitter fork
	chaosRng := root.ForkNamed(0xc405)
	return materializeChaos(c.Chaos, c.N, chaosRng), nil
}

// ParseChaosSpec parses the -des-crash syntax: comma-separated
// "proc:<rate>" and/or "server:<windows>", optionally tuned with
// "horizon:<dur>" and "down:<dur>", e.g. "proc:0.2,server:1" or
// "server:2,horizon:48ms,down:2ms".
func ParseChaosSpec(s string) (ChaosConfig, error) {
	var c ChaosConfig
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, ":")
		if !ok {
			return ChaosConfig{}, fmt.Errorf("des: bad crash spec %q (want proc:<rate> or server:<windows>, e.g. proc:0.2,server:1)", part)
		}
		switch key {
		case "proc":
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return ChaosConfig{}, fmt.Errorf("des: bad proc crash rate %q: %v", val, err)
			}
			if !(rate > 0 && rate <= 1) {
				return ChaosConfig{}, fmt.Errorf("des: proc crash rate must be in (0, 1], got %q", val)
			}
			c.ProcRate = rate
		case "server":
			w, err := strconv.Atoi(val)
			if err != nil || w < 1 {
				return ChaosConfig{}, fmt.Errorf("des: bad server crash window count %q (want a positive integer)", val)
			}
			c.ServerWindows = w
		case "horizon":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return ChaosConfig{}, fmt.Errorf("des: bad crash horizon %q (want a positive duration)", val)
			}
			c.Horizon = d
		case "down":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return ChaosConfig{}, fmt.Errorf("des: bad mean downtime %q (want a positive duration)", val)
			}
			c.MeanDown = d
		default:
			return ChaosConfig{}, fmt.Errorf("des: unknown crash target %q (want proc, server, horizon, or down)", key)
		}
	}
	if !c.Active() {
		return ChaosConfig{}, fmt.Errorf("des: empty crash spec %q", s)
	}
	return c, nil
}

// RetryPolicy tunes how clients survive lost replies and server crash
// windows. Zero fields take the engine defaults, which reproduce the
// pre-chaos retransmission behavior exactly.
type RetryPolicy struct {
	// RTO is the initial retransmission timeout (0 = 8x the mean
	// one-way latency, floored at 1us).
	RTO time.Duration `json:"rto_ns,omitempty"`
	// Backoff multiplies the timeout after each retransmission
	// (0 = 2).
	Backoff float64 `json:"backoff,omitempty"`
	// Cap bounds the backed-off timeout (0 = 64x the initial RTO).
	Cap time.Duration `json:"cap_ns,omitempty"`
	// Jitter in [0, 1) inflates every armed timeout by an independent
	// uniform fraction drawn from the retry stream — a named xrand fork
	// disjoint from the network and protocol streams (0 = none).
	Jitter float64 `json:"jitter,omitempty"`
	// MaxRetries caps retransmissions per operation; on exhaustion the
	// process gives up — it stops participating and its outcome is
	// surfaced per-process instead of hanging the event loop
	// (0 = retry forever).
	MaxRetries int `json:"max_retries,omitempty"`
}

func (r RetryPolicy) validate() error {
	if r.RTO < 0 {
		return fmt.Errorf("des: retry RTO must be non-negative, got %v", r.RTO)
	}
	if r.Cap < 0 {
		return fmt.Errorf("des: retry cap must be non-negative, got %v", r.Cap)
	}
	if r.Backoff != 0 && !(r.Backoff >= 1 && r.Backoff <= 64) {
		return fmt.Errorf("des: retry backoff must be in [1, 64] (or 0 for the default 2), got %g", r.Backoff)
	}
	if !(r.Jitter >= 0 && r.Jitter < 1) {
		return fmt.Errorf("des: retry jitter must be in [0, 1), got %g", r.Jitter)
	}
	if r.MaxRetries < 0 {
		return fmt.Errorf("des: retry limit must be non-negative, got %d", r.MaxRetries)
	}
	return nil
}
