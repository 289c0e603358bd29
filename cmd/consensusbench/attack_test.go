package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/attack/search"
)

// TestAttackFlagValidation: every contradictory or malformed -attack*
// combination must fail fast with a descriptive error, pair by pair
// against every other run shape — a full search spends thousands of
// simulated consensus runs, so a typo must not burn that budget first.
func TestAttackFlagValidation(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"des conflict", []string{"-attack", "all", "-des"}, "cannot be combined"},
		{"des-json conflict", []string{"-attack", "all", "-des-json", "d.json"}, "cannot be combined"},
		{"des-trials conflict", []string{"-attack", "all", "-des-trials", "3"}, "cannot be combined"},
		{"fault conflict", []string{"-attack", "all", "-fault", "all"}, "cannot be combined"},
		{"fault-trials conflict", []string{"-attack", "all", "-fault-trials", "3"}, "cannot be combined"},
		{"fault-replay conflict", []string{"-attack", "all", "-fault-replay", "r.json"}, "cannot be combined"},
		{"bench-json conflict", []string{"-attack", "all", "-bench-json", "b.json"}, "cannot be combined"},
		{"metrics-json conflict", []string{"-attack", "all", "-metrics-json", "m.json"}, "cannot be combined"},
		{"metrics conflict", []string{"-attack", "all", "-metrics"}, "cannot be combined"},
		{"timings conflict", []string{"-attack", "all", "-timings"}, "cannot be combined"},
		{"experiment conflict", []string{"-attack", "all", "-experiment", "E19"}, "cannot be combined"},
		{"all conflict", []string{"-attack", "all", "-all"}, "cannot be combined"},
		{"list conflict", []string{"-attack", "all", "-list"}, "cannot be combined"},
		{"replay with attack", []string{"-attack-replay", "r.json", "-attack", "all"}, "cannot be combined"},
		{"replay with json", []string{"-attack-replay", "r.json", "-attack-json", "a.json"}, "cannot be combined"},
		{"replay with n", []string{"-attack-replay", "r.json", "-attack-n", "8"}, "cannot be combined"},
		{"replay with budget", []string{"-attack-replay", "r.json", "-attack-budget", "8"}, "cannot be combined"},
		{"replay with trials", []string{"-attack-replay", "r.json", "-attack-trials", "2"}, "cannot be combined"},
		{"replay with faults", []string{"-attack-replay", "r.json", "-attack-faults"}, "cannot be combined"},
		{"orphan attack-json", []string{"-attack-json", "a.json"}, "require -attack"},
		{"orphan attack-n", []string{"-attack-n", "8"}, "require -attack"},
		{"orphan attack-budget", []string{"-attack-budget", "32"}, "require -attack"},
		{"orphan attack-trials", []string{"-attack-trials", "2"}, "require -attack"},
		{"orphan attack-faults", []string{"-attack-faults"}, "require -attack"},
		{"unknown protocol", []string{"-attack", "paxos"}, "unknown protocol"},
		{"empty protocols", []string{"-attack", " , "}, "no protocols"},
		{"n too small", []string{"-attack", "sifter", "-attack-n", "1"}, "outside [2, 64]"},
		{"n too large", []string{"-attack", "sifter", "-attack-n", "65"}, "outside [2, 64]"},
		{"negative budget", []string{"-attack", "sifter", "-attack-budget", "-4"}, "attack-budget"},
		{"negative trials", []string{"-attack", "sifter", "-attack-trials", "-1"}, "attack-trials"},
		{"bad format", []string{"-attack", "sifter", "-format", "xml"}, "unknown format"},
		{"replay missing file", []string{"-attack-replay", "no/such/record.json"}, "attack-replay"},
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

// TestAttackSearchSmokeAndRecord runs a tiny two-protocol search through
// the CLI, checks the table, and verifies each written artifact decodes
// and replays byte-identically through the -attack-replay path.
func TestAttackSearchSmokeAndRecord(t *testing.T) {
	base := filepath.Join(t.TempDir(), "attack.json")
	var b strings.Builder
	err := run([]string{
		"-attack", "all",
		"-quick",
		"-attack-budget", "8",
		"-attack-json", base,
	}, &b)
	if err != nil {
		t.Fatalf("search failed: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{"oblivious adversary search", "sifter", "priority", "white-box"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	for _, protocol := range search.Protocols() {
		path := attackArtifactPath(base, protocol, true)
		rec, err := search.LoadRecord(path)
		if err != nil {
			t.Fatalf("artifact for %s not written/decodable: %v", protocol, err)
		}
		if rec.Protocol != protocol || rec.Winner == nil {
			t.Fatalf("artifact mangled: %+v", rec)
		}
		if rec.Confirm.StepsMean > rec.WhiteBox.StepsMean {
			t.Errorf("%s: oblivious winner (%.2f) beat the white-box graft (%.2f)",
				protocol, rec.Confirm.StepsMean, rec.WhiteBox.StepsMean)
		}
		var rb strings.Builder
		if err := run([]string{"-attack-replay", path}, &rb); err != nil {
			t.Fatalf("replay of %s failed: %v\n%s", path, err, rb.String())
		}
		if !strings.Contains(rb.String(), "replayed byte-identically") {
			t.Errorf("replay output missing confirmation:\n%s", rb.String())
		}
	}
}

// TestAttackSingleProtocolPath: a single-protocol run writes exactly the
// given path, no suffix inserted.
func TestAttackSingleProtocolPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "one.json")
	var b strings.Builder
	err := run([]string{"-attack", "sifter", "-quick", "-attack-budget", "6", "-attack-json", path}, &b)
	if err != nil {
		t.Fatalf("search failed: %v\n%s", err, b.String())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("single-protocol artifact not at the given path: %v", err)
	}
}

// TestCommittedAttackArtifactsReplay is the acceptance-criteria pin: the
// committed E19 artifacts at the repo root replay byte-identically, and
// the searched oblivious schedule never beats the white-box baseline.
func TestCommittedAttackArtifactsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay of committed artifacts")
	}
	for _, name := range []string{"ATTACK_E19_sifter.json", "ATTACK_E19_priority.json"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join("..", "..", name)
			rec, err := search.LoadRecord(path)
			if err != nil {
				t.Fatalf("committed artifact unreadable: %v", err)
			}
			if rec.Confirm.StepsMean > rec.WhiteBox.StepsMean {
				t.Errorf("oblivious winner (%.2f) beats white-box (%.2f): dominance pin broken",
					rec.Confirm.StepsMean, rec.WhiteBox.StepsMean)
			}
			var b strings.Builder
			if err := run([]string{"-attack-replay", path}, &b); err != nil {
				t.Fatalf("committed artifact rotted: %v\n%s", err, b.String())
			}
		})
	}
}
