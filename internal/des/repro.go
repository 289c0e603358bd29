package des

import (
	"fmt"

	"github.com/oblivious-consensus/conciliator/internal/fault"
)

// Repro is a DES fault-repro artifact: the fault package's envelope
// (schema des-fault-repro/v1) around a ReproRun.
type Repro = fault.Repro[ReproRun]

// ReproRun is the DES's description of a failing chaos run: everything
// a replayer needs to re-execute the trial bit-for-bit. The chaos
// schedule is recorded as the explicit materialized event list
// (typically after shrinking), so replay does not depend on the
// plan-materialization code staying frozen — only on the engine's
// determinism contract.
type ReproRun struct {
	Protocol string `json:"protocol"`
	// Epsilon is the per-phase agreement-failure budget (0 = default).
	Epsilon float64 `json:"epsilon,omitempty"`
	Seed    uint64  `json:"seed"`
	// Latency is the LatencyDist in its parseable "kind:mean" form.
	Latency string  `json:"latency"`
	Loss    float64 `json:"loss,omitempty"`
	// Partitions are in the parseable "from:until:frac" form.
	Partitions []string    `json:"partitions,omitempty"`
	Retry      RetryPolicy `json:"retry"`
	// Chaos is the explicit (shrunk) crash schedule.
	Chaos     []ChaosEvent `json:"chaos"`
	MaxEvents int64        `json:"max_events,omitempty"`
	MaxPhases int          `json:"max_phases,omitempty"`
}

// BuildRepro captures a failing run: the configuration with its chaos
// plan replaced by the explicit schedule `events` (pass the materialized
// or shrunk schedule), plus the violations the run produced.
func BuildRepro(cfg Config, events []ChaosEvent, violations []fault.Violation) *Repro {
	cfg = cfg.withDefaults()
	run := ReproRun{
		Protocol:  cfg.Protocol,
		Epsilon:   cfg.Epsilon,
		Seed:      cfg.Seed,
		Latency:   cfg.Net.Latency.String(),
		Loss:      cfg.Net.Loss,
		Retry:     cfg.Retry,
		Chaos:     normalizeChaos(events),
		MaxEvents: cfg.MaxEvents,
		MaxPhases: cfg.MaxPhases,
	}
	for _, p := range cfg.Net.Partitions {
		run.Partitions = append(run.Partitions, p.String())
	}
	return &Repro{N: cfg.N, Run: run, Violations: violations}
}

// Config reconstructs the configuration of the recorded run over n
// processes.
func (r ReproRun) Config(n int) (Config, error) {
	lat, err := ParseLatency(r.Latency)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		N:         n,
		Protocol:  r.Protocol,
		Epsilon:   r.Epsilon,
		Seed:      r.Seed,
		Net:       NetConfig{Latency: lat, Loss: r.Loss},
		Chaos:     ChaosConfig{Events: r.Chaos},
		Retry:     r.Retry,
		MaxEvents: r.MaxEvents,
		MaxPhases: r.MaxPhases,
	}
	for _, s := range r.Partitions {
		p, err := ParsePartition(s)
		if err != nil {
			return Config{}, err
		}
		cfg.Net.Partitions = append(cfg.Net.Partitions, p)
	}
	return cfg, nil
}

// Schema implements fault.Run.
func (ReproRun) Schema() string { return fault.SchemaDESRepro }

// Validate implements fault.Run.
func (r ReproRun) Validate(n int) error {
	if len(r.Chaos) == 0 {
		return fmt.Errorf("des: repro carries no chaos schedule")
	}
	cfg, err := r.Config(n)
	if err != nil {
		return err
	}
	return cfg.withDefaults().validate()
}

// Replay re-executes the recorded run and applies the envelope's replay
// rule (fault.Repro.Confirm): the recorded violations must reproduce
// exactly. The engine's determinism contract makes this byte-for-byte.
func Replay(r *Repro) (Result, error) {
	cfg, err := r.Run.Config(r.N)
	if err != nil {
		return Result{}, err
	}
	// Weakened-semantics runs may legitimately fail to terminate (the
	// run error restates the recorded nontermination); what replay must
	// match is the violation transcript, not the error.
	res, _ := Run(cfg)
	return res, r.Confirm(res.Violations)
}
