package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/des"
	"github.com/oblivious-consensus/conciliator/internal/fault"
)

// TestFaultFlagValidation: every bad -fault* combination must fail fast
// with a descriptive error and nothing written — these runs can take
// minutes, so a typo must not burn the budget first.
func TestFaultFlagValidation(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"unknown fault kind", []string{"-fault", "bogus"}, "unknown fault kind"},
		{"empty fault list", []string{"-fault", " , "}, "no fault kinds"},
		{"negative stutter", []string{"-fault", "stutter", "-fault-stutter", "-2"}, "fault-stutter"},
		{"negative trials", []string{"-fault", "all", "-fault-trials", "-1"}, "fault-trials"},
		{"negative n", []string{"-fault", "all", "-fault-n", "-4"}, "fault-n"},
		{"negative shrink", []string{"-fault", "all", "-fault-shrink", "-9"}, "fault-shrink"},
		{"unknown sched kind", []string{"-fault", "all", "-fault-sched", "warp"}, "unknown schedule kind"},
		{"metrics-json conflict", []string{"-fault", "all", "-metrics-json", "m.json"}, "-metrics-json cannot be combined with -fault"},
		{"bench-json conflict", []string{"-fault", "all", "-bench-json", "b.json"}, "not the experiment suite's -bench-json/-metrics-json records"},
		{"experiment conflict", []string{"-fault", "all", "-experiment", "E3"}, "cannot be combined"},
		{"all conflict", []string{"-fault", "all", "-all"}, "cannot be combined"},
		{"replay plus sweep", []string{"-fault-replay", "r.json", "-fault", "all"}, "cannot be combined"},
		{"replay plus json", []string{"-fault-replay", "r.json", "-fault-json", "x.json"}, "cannot be combined"},
		{"orphan fault flag", []string{"-fault-trials", "5"}, "require -fault"},
		{"replay missing file", []string{"-fault-replay", filepath.Join(t.TempDir(), "nope.json")}, "loading repro"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var b strings.Builder
			err := run(tt.args, &b)
			if err == nil {
				t.Fatalf("args %v accepted", tt.args)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestFaultSweepSmokeAndReport(t *testing.T) {
	reportPath := filepath.Join(t.TempDir(), "fault.json")
	var b strings.Builder
	err := run([]string{
		"-fault", "atomic,stutter",
		"-fault-sched", "round-robin",
		"-fault-trials", "3",
		"-fault-json", reportPath,
	}, &b)
	if err != nil {
		t.Fatalf("sweep failed: %v\n%s", err, b.String())
	}
	out := b.String()
	if !strings.Contains(out, "atomic+stutter/round-robin") {
		t.Errorf("cell lines missing:\n%s", out)
	}
	if !strings.Contains(out, "cells,") {
		t.Errorf("summary line missing:\n%s", out)
	}

	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep faultReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid report JSON: %v", err)
	}
	if rep.Schema != "conciliator-fault-report/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Seed == 0 {
		t.Error("default seed not recorded")
	}
	// atomic+stutter pins both axes: 1 semantics x 1 proc fault x 1 sched x
	// 2 workloads.
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if !c.Atomic || c.Violated != 0 {
			t.Errorf("atomic cell unsound: %+v", c)
		}
		if c.Trials != 3 {
			t.Errorf("trials = %d", c.Trials)
		}
	}
}

// TestFaultSweepReplayRoundTrip is the end-to-end satellite: a weakened
// sweep produces a shrunk artifact on disk, and -fault-replay confirms
// it reproduces.
func TestFaultSweepReplayRoundTrip(t *testing.T) {
	reproDir := t.TempDir()
	var b strings.Builder
	err := run([]string{
		"-fault", "safe",
		"-fault-sched", "round-robin,random",
		"-fault-trials", "8",
		"-fault-repros", reproDir,
	}, &b)
	if err != nil {
		t.Fatalf("sweep failed: %v\n%s", err, b.String())
	}
	entries, err := os.ReadDir(reproDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatalf("safe-register sweep saved no repros:\n%s", b.String())
	}

	artifact := filepath.Join(reproDir, entries[0].Name())
	b.Reset()
	if err := run([]string{"-fault-replay", artifact}, &b); err != nil {
		t.Fatalf("replay failed: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "reproduced") {
		t.Errorf("replay did not confirm reproduction:\n%s", b.String())
	}

	// The replay rule is exact: an artifact that records one violation
	// more than its replay produces is rejected, although the replay
	// still violates.
	data, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	r, err := fault.DecodeRepro[fault.SlotRun](data)
	if err != nil {
		t.Fatal(err)
	}
	r.Violations = append(r.Violations, fault.Violation{Monitor: "agreement", Detail: "never fired"})
	extra := filepath.Join(t.TempDir(), "extra.json")
	if err := r.Save(extra); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-fault-replay", extra}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("artifact with an extra recorded violation not rejected: %v", err)
	}
}

// TestFaultReplayCommittedDESArtifact: the committed DES artifact
// decodes through the shared envelope, re-encodes to its exact bytes,
// and replays through -fault-replay with its recorded violations.
func TestFaultReplayCommittedDESArtifact(t *testing.T) {
	const path = "../../DES_FAULT_REPRO_server_amnesia.json"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := fault.DecodeRepro[des.ReproRun](data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatalf("re-encoded artifact differs from the committed bytes:\n%s", again)
	}
	var b strings.Builder
	if err := run([]string{"-fault-replay", path}, &b); err != nil {
		t.Fatalf("replay failed: %v\n%s", err, b.String())
	}
	if want := fmt.Sprintf("reproduced %d violations byte-identically", len(r.Violations)); !strings.Contains(b.String(), want) {
		t.Errorf("replay output lacks %q:\n%s", want, b.String())
	}
}

func TestFaultReplayStaleArtifact(t *testing.T) {
	// An artifact whose schedule injects nothing cannot reproduce a
	// violation; the replay must fail loudly rather than "pass".
	path := filepath.Join(t.TempDir(), "stale.json")
	artifact := `{
  "schema": "conciliator-fault-repro/v1",
  "n": 2,
  "sched": "round-robin",
  "sched_seed": 1,
  "alg_seed": 1,
  "workload": "maxreg-probe",
  "fault": {"schema": "conciliator-fault/v1", "n": 2, "events": []},
  "violations": [{"monitor": "maxreg-monotonic", "detail": "recorded elsewhere"}]
}`
	if err := os.WriteFile(path, []byte(artifact), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err := run([]string{"-fault-replay", path}, &b)
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("stale artifact not rejected: %v", err)
	}
}

func TestFaultSweepDeterministicOutput(t *testing.T) {
	render := func() string {
		var b strings.Builder
		if err := run([]string{
			"-fault", "regular,stall",
			"-fault-sched", "random",
			"-fault-trials", "4",
		}, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, c := render(), render()
	// The summary line carries wall time; compare everything above it.
	trim := func(s string) string {
		i := strings.LastIndex(s, "fault: ")
		return s[:i]
	}
	if trim(a) != trim(c) {
		t.Errorf("sweep output differs across runs:\n%s\nvs\n%s", a, c)
	}
}
