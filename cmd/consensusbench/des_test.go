package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden -des outputs under testdata")

// checkGolden compares got with the golden file testdata/name, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from golden file %s.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestDESFlagValidation: every contradictory or malformed -des*
// combination must fail fast with a descriptive error — a full DES sweep
// runs for minutes at n=100k, so a typo must not burn that budget first.
func TestDESFlagValidation(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"bench-json conflict", []string{"-des", "-bench-json", "b.json"}, "cannot be combined"},
		{"metrics-json conflict", []string{"-des", "-metrics-json", "m.json"}, "cannot be combined"},
		{"metrics conflict", []string{"-des", "-metrics"}, "cannot be combined"},
		{"timings conflict", []string{"-des", "-timings"}, "cannot be combined"},
		{"experiment conflict", []string{"-des", "-experiment", "E18"}, "cannot be combined"},
		{"all conflict", []string{"-des", "-all"}, "cannot be combined"},
		{"list conflict", []string{"-des", "-list"}, "cannot be combined"},
		{"fault conflict", []string{"-des", "-fault", "all"}, "cannot be combined"},
		{"fault-trials conflict", []string{"-des", "-fault-trials", "3"}, "cannot be combined"},
		{"orphan des-json", []string{"-des-json", "d.json"}, "require -des"},
		{"orphan des-n", []string{"-des-n", "1000"}, "require -des"},
		{"orphan des-loss", []string{"-des-loss", "0.5"}, "require -des"},
		{"bad n", []string{"-des", "-des-n", "0"}, "bad process count"},
		{"junk n", []string{"-des", "-des-n", "many"}, "bad process count"},
		{"empty n", []string{"-des", "-des-n", " , "}, "no process counts"},
		{"unknown protocol", []string{"-des", "-des-protocols", "paxos"}, "unknown protocol"},
		{"negative trials", []string{"-des", "-des-trials", "-2"}, "des-trials"},
		{"loss too big", []string{"-des", "-des-loss", "1.5"}, "out of range"},
		{"bad latency kind", []string{"-des", "-des-latency", "normal:1ms"}, "latency"},
		{"bad latency mean", []string{"-des", "-des-latency", "exp:zzz"}, "latency"},
		{"bad partition", []string{"-des", "-des-partition", "5ms+25ms+0.3"}, "partition"},
		{"empty partition list", []string{"-des", "-des-partition", " , "}, "no partitions"},
		{"partition never heals", []string{"-des", "-des-partition", "25ms:5ms:0.3"}, "heal"},
		{"partition frac zero", []string{"-des", "-des-partition", "5ms:25ms:0"}, "fraction"},
		{"partition frac trailing junk", []string{"-des", "-des-partition", "5ms:25ms:0.3abc"}, "partition fraction"},
		{"partition frac two numbers", []string{"-des", "-des-partition", "5ms:25ms:0.3 0.5"}, "partition fraction"},
		{"bad format", []string{"-des", "-format", "xml"}, "unknown format"},
		{"orphan des-crash", []string{"-des-crash", "proc:0.2"}, "require -des"},
		{"orphan des-restart", []string{"-des-restart", "durable"}, "require -des"},
		{"orphan des-fault-repros", []string{"-des-fault-repros", "out"}, "require -des"},
		{"restart without crash", []string{"-des", "-des-restart", "amnesiac"}, "requires -des-crash"},
		{"repros without crash", []string{"-des", "-des-fault-repros", "out"}, "requires -des-crash"},
		{"crash rate too big", []string{"-des", "-des-crash", "proc:1.5"}, "crash rate"},
		{"crash rate NaN", []string{"-des", "-des-crash", "proc:NaN"}, "crash rate"},
		{"bad crash windows", []string{"-des", "-des-crash", "server:0"}, "window count"},
		{"bad crash target", []string{"-des", "-des-crash", "router:1"}, "unknown crash target"},
		{"bad crash horizon", []string{"-des", "-des-crash", "server:1,horizon:-3ms"}, "horizon"},
		{"bad crash downtime", []string{"-des", "-des-crash", "server:1,down:zzz"}, "downtime"},
		{"empty crash spec", []string{"-des", "-des-crash", " , "}, "empty crash spec"},
		{"bad restart variant", []string{"-des", "-des-crash", "proc:0.2", "-des-restart", "reincarnate"}, "unknown variant"},
		{"loss NaN", []string{"-des", "-des-loss", "NaN"}, "out of range"},
		{"replay with sweep flag", []string{"-des", "-fault-replay", "r.json"}, "cannot be combined"},
		{"replay with crash flag", []string{"-fault-replay", "r.json", "-des-crash", "proc:0.2"}, "cannot be combined"},
		{"replay missing file", []string{"-fault-replay", "no-such-repro.json"}, "no-such-repro"},
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

func TestDESSweepSmokeAndRecord(t *testing.T) {
	recPath := filepath.Join(t.TempDir(), "des.json")
	var b strings.Builder
	err := run([]string{
		"-des",
		"-des-n", "64,128",
		"-des-protocols", "sifter,priority-max",
		"-des-trials", "2",
		"-des-json", recPath,
	}, &b)
	if err != nil {
		t.Fatalf("sweep failed: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{"message-passing sweep", "sifter", "priority-max", "steps/proc"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	data, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatalf("record not written: %v", err)
	}
	var rec desRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("record is not valid JSON: %v", err)
	}
	if rec.Schema != "conciliator-des/v1" {
		t.Errorf("schema = %q, want conciliator-des/v1", rec.Schema)
	}
	if len(rec.Rows) != 4 { // 2 ns x 2 protocols
		t.Fatalf("got %d rows, want 4", len(rec.Rows))
	}
	for _, row := range rec.Rows {
		if !row.AllDecided || row.Violations != 0 {
			t.Errorf("row %+v: expected a clean decided run", row)
		}
		if row.StepsMean <= 0 || row.StepsMax <= 0 || row.Events <= 0 {
			t.Errorf("row %+v: implausible accounting", row)
		}
	}
}

// TestDESChaosSweepSmoke runs a small crash-recovery sweep under atomic
// semantics (durable server) and checks the chaos accounting columns
// land in the JSON record with zero violations.
func TestDESChaosSweepSmoke(t *testing.T) {
	recPath := filepath.Join(t.TempDir(), "chaos.json")
	var b strings.Builder
	err := run([]string{
		"-des",
		"-des-n", "32",
		"-des-protocols", "sifter",
		"-des-trials", "3",
		"-des-crash", "proc:0.25,server:1",
		"-des-restart", "amnesiac",
		"-des-json", recPath,
	}, &b)
	if err != nil {
		t.Fatalf("chaos sweep failed: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{"chaos sweep", "crashes", "restarts", "resyncs", "gave up"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatalf("record not written: %v", err)
	}
	var rec desRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("record is not valid JSON: %v", err)
	}
	if rec.Crash != "proc:0.25,server:1" || rec.Restart != "amnesiac" {
		t.Errorf("record crash/restart = %q/%q", rec.Crash, rec.Restart)
	}
	if len(rec.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rec.Rows))
	}
	row := rec.Rows[0]
	if row.Crashes == 0 || row.Restarts == 0 {
		t.Errorf("row %+v: chaos schedule did not crash anything", row)
	}
	if row.Resyncs == 0 {
		t.Errorf("row %+v: amnesiac process restarts must resync", row)
	}
	// Durable server: the shared objects stay atomic, so safety holds.
	if row.Violations != 0 || row.RunErrors != 0 {
		t.Errorf("row %+v: atomic-semantics chaos run must be clean", row)
	}
}

// TestDESFaultReproSaveAndReplay drives the whole artifact loop through
// the CLI: a weakened amnesiac-server sweep positioned in the violating
// regime saves a shrunk des-fault-repro/v1 artifact, and -fault-replay
// reproduces its recorded violations byte-for-byte. The sweep's table
// and record are pinned too: it is the one golden -des run with
// violations.
func TestDESFaultReproSaveAndReplay(t *testing.T) {
	dir := t.TempDir()
	recPath := filepath.Join(t.TempDir(), "des.json")
	var b strings.Builder
	err := run([]string{
		"-des",
		"-des-n", "16",
		"-des-protocols", "sifter",
		"-des-trials", "20",
		"-des-crash", "server:2,horizon:48ms,down:2ms",
		"-des-restart", "amnesiac-server",
		"-des-fault-repros", dir,
		"-des-json", recPath,
	}, &b)
	if err != nil {
		t.Fatalf("weakened sweep failed: %v\n%s", err, b.String())
	}
	// The saved-repro lines name the temporary directory.
	checkGolden(t, "golden_des_weakened.txt", []byte(strings.ReplaceAll(b.String(), dir, "REPROS")))
	rec, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatalf("record not written: %v", err)
	}
	checkGolden(t, "golden_des_weakened.json", rec)
	matches, err := filepath.Glob(filepath.Join(dir, "des_fault_*.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no fault repro saved (err=%v); sweep output:\n%s", err, b.String())
	}
	// The artifacts are pinned byte for byte: which trials violate, how
	// they shrink and what they record must not depend on how the
	// sweep's trials are scheduled.
	var names []string
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, filepath.Base(m))
		checkGolden(t, filepath.Join("golden_des_repros", filepath.Base(m)), data)
	}
	checkGolden(t, filepath.Join("golden_des_repros", "index.txt"), []byte(strings.Join(names, "\n")+"\n"))
	var r strings.Builder
	if err := run([]string{"-fault-replay", matches[0]}, &r); err != nil {
		t.Fatalf("replay of %s failed: %v\n%s", matches[0], err, r.String())
	}
	if !strings.Contains(r.String(), "byte-identically") {
		t.Errorf("replay output missing confirmation:\n%s", r.String())
	}

	// Tampering with the artifact must break the replay: the violations
	// are part of the recorded contract.
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), `"seed": `, `"seed": 1`, 1)
	badPath := filepath.Join(dir, "tampered.json")
	if err := os.WriteFile(badPath, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fault-replay", badPath}, io.Discard); err == nil {
		t.Error("tampered artifact replayed cleanly")
	}
}

// TestDESSweepReplaysByteIdentically is the CLI-level determinism
// contract: the same seed and flags must render the same bytes, with or
// without -des-json, and both the table and the record are pinned by
// golden files.
func TestDESSweepReplaysByteIdentically(t *testing.T) {
	args := []string{"-des", "-des-n", "96", "-des-trials", "2", "-des-loss", "0.1", "-seed", "7"}
	recPath := filepath.Join(t.TempDir(), "des.json")
	var a, b strings.Builder
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-des-json", recPath), &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed and flags rendered different tables:\n%s\nvs\n%s", a.String(), b.String())
	}
	checkGolden(t, "golden_des_sweep.txt", []byte(a.String()))
	rec, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatalf("record not written: %v", err)
	}
	checkGolden(t, "golden_des_sweep.json", rec)
}
