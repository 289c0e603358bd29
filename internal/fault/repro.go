package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// Schema tags of repro artifacts. The tag names the engine that
// replays the artifact.
const (
	// SchemaRepro tags slot-clock artifacts: a controlled run under a
	// fault schedule (Run is SlotRun).
	SchemaRepro = "conciliator-fault-repro/v1"
	// SchemaDESRepro tags virtual-clock artifacts: a DES run under a
	// crash schedule (Run is des.ReproRun).
	SchemaDESRepro = "des-fault-repro/v1"
)

// Run is one engine's description of a failing run: everything the
// engine needs to re-execute it bit for bit.
type Run interface {
	// Schema returns the artifact schema tag naming the engine.
	Schema() string
	// Validate checks the run is replayable with n processes.
	Validate(n int) error
}

// Repro is a minimal, self-contained reproduction of a safety violation
// or non-termination, for either engine. It serializes as one JSON
// object: "schema" (the engine's tag) and "n", then the fields of Run,
// then "violations".
type Repro[R Run] struct {
	// N is the process count.
	N   int
	Run R
	// Violations are the monitor firings the original run produced. A
	// replay must reproduce them exactly; see Confirm.
	Violations []Violation

	// SavedPath is where Save last wrote the artifact; informational
	// only, never serialized.
	SavedPath string
}

// reproHead and reproTail are the envelope's own fields in serialized
// form: the head precedes the run's fields, the tail follows them.
type reproHead struct {
	Schema string `json:"schema"`
	N      int    `json:"n"`
}

type reproTail struct {
	Violations []Violation `json:"violations"`
}

// Validate checks the artifact is well-formed enough to replay.
func (r *Repro[R]) Validate() error {
	if r.N <= 0 {
		return fmt.Errorf("fault: repro has non-positive process count %d", r.N)
	}
	if len(r.Violations) == 0 {
		return fmt.Errorf("fault: repro records no violations to reproduce")
	}
	return r.Run.Validate(r.N)
}

// Confirm is the replay rule of both engines: a replay must produce the
// recorded violations exactly, in order. Any divergence is a
// determinism regression or a stale artifact.
func (r *Repro[R]) Confirm(got []Violation) error {
	if slices.Equal(got, r.Violations) {
		return nil
	}
	return fmt.Errorf("fault: replay diverged: recorded %d violations, got %d (determinism regression or stale artifact)",
		len(r.Violations), len(got))
}

// Encode serializes the artifact.
func (r *Repro[R]) Encode() ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	head, err := json.Marshal(reproHead{Schema: r.Run.Schema(), N: r.N})
	if err != nil {
		return nil, err
	}
	run, err := json.Marshal(r.Run)
	if err != nil {
		return nil, err
	}
	tail, err := json.Marshal(reproTail{r.Violations})
	if err != nil {
		return nil, err
	}
	// Splice the three objects into one by dropping the braces between
	// them.
	obj := append(head[:len(head)-1], ',')
	obj = append(obj, run[1:len(run)-1]...)
	obj = append(obj, ',')
	obj = append(obj, tail[1:]...)
	var out bytes.Buffer
	if err := json.Indent(&out, obj, "", "  "); err != nil {
		return nil, err
	}
	out.WriteByte('\n')
	return out.Bytes(), nil
}

// ReproSchema returns the schema tag of a serialized artifact, which
// names the engine that replays it.
func ReproSchema(data []byte) (string, error) {
	var head reproHead
	if err := json.Unmarshal(data, &head); err != nil {
		return "", fmt.Errorf("fault: parsing repro: %w", err)
	}
	return head.Schema, nil
}

// DecodeRepro parses and validates a serialized artifact for the engine
// R describes.
func DecodeRepro[R Run](data []byte) (*Repro[R], error) {
	var head struct {
		reproHead
		reproTail
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("fault: parsing repro: %w", err)
	}
	r := &Repro[R]{N: head.N, Violations: head.Violations}
	if want := r.Run.Schema(); head.Schema != want {
		return nil, fmt.Errorf("fault: repro schema %q, want %q", head.Schema, want)
	}
	if err := json.Unmarshal(data, &r.Run); err != nil {
		return nil, fmt.Errorf("fault: parsing repro: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// Save writes the artifact to path, creating parent directories, and
// records path in SavedPath.
func (r *Repro[R]) Save(path string) error {
	data, err := r.Encode()
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	r.SavedPath = path
	return nil
}

// LoadRepro reads and validates an artifact for the engine R describes.
func LoadRepro[R Run](path string) (*Repro[R], error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeRepro[R](data)
}

// SlotRun is the slot-clock engine's run description. A controlled run
// is a pure function of (workload, schedule source, algorithm seed,
// fault schedule), so no recorded slots are necessary: these fields
// regenerate the identical execution.
type SlotRun struct {
	// Sched names the schedule source kind (sched.Kind.String()).
	Sched string `json:"sched"`
	// SchedSeed seeds the schedule source.
	SchedSeed uint64 `json:"sched_seed"`
	// AlgSeed seeds the per-process algorithm randomness.
	AlgSeed uint64 `json:"alg_seed"`
	// MaxSlots is the run's slot budget (0 = simulator default).
	MaxSlots int64 `json:"max_slots,omitempty"`
	// Workload names the trial body; the experiment package's replayer
	// resolves it.
	Workload string `json:"workload"`
	// Fault is the (typically shrunk) fault schedule.
	Fault *Schedule `json:"fault"`
}

// Schema implements Run.
func (SlotRun) Schema() string { return SchemaRepro }

// Validate implements Run.
func (s SlotRun) Validate(n int) error {
	if s.Workload == "" {
		return fmt.Errorf("fault: repro names no workload")
	}
	if s.Fault == nil {
		return fmt.Errorf("fault: repro carries no fault schedule")
	}
	if s.Fault.N() != n {
		return fmt.Errorf("fault: repro is for %d processes but its schedule targets %d", n, s.Fault.N())
	}
	return s.Fault.Validate()
}
