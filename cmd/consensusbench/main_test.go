package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-list"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, id := range []string{"E1", "E7", "E14"} {
		if !strings.Contains(out, id) {
			t.Errorf("list missing %s", id)
		}
	}
	if !strings.Contains(out, "claim:") {
		t.Error("list missing claims")
	}
}

func TestRunSingleExperimentText(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "E3", "-quick"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "E3") || !strings.Contains(out, "log* n") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestLowercaseIDAccepted(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "e3", "-quick"}, &b); err != nil {
		t.Fatal(err)
	}
}

func TestFormats(t *testing.T) {
	for _, format := range []string{"text", "markdown", "tsv"} {
		t.Run(format, func(t *testing.T) {
			var b strings.Builder
			if err := run([]string{"-experiment", "E6", "-quick", "-format", format}, &b); err != nil {
				t.Fatal(err)
			}
			if b.Len() == 0 {
				t.Fatal("empty output")
			}
		})
	}
}

func TestMarkdownFormatShape(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "E6", "-quick", "-format", "markdown"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "| n |") {
		t.Errorf("markdown table header missing:\n%s", b.String())
	}
}

func TestTimingsFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "E6", "-quick", "-timings"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "took") {
		t.Error("timings missing")
	}
}

func TestErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // substring of the error, when set
	}{
		{name: "no action", args: nil},
		{name: "unknown experiment", args: []string{"-experiment", "E99"}},
		{name: "unknown format", args: []string{"-experiment", "E6", "-quick", "-format", "xml"}},
		{name: "bad flag", args: []string{"-nope"}},
		{name: "negative trials", args: []string{"-experiment", "E3", "-quick", "-trials", "-5"}, want: "-trials must be non-negative"},
		{name: "negative trials with bench-json", args: []string{"-experiment", "E3", "-quick", "-trials", "-5", "-bench-json", "b.json"}, want: "-trials must be non-negative"},
		{name: "negative trials in des mode", args: []string{"-des", "-trials", "-2"}, want: "-trials must be non-negative"},
		{name: "negative trials in fault mode", args: []string{"-fault", "all", "-trials", "-1"}, want: "-trials must be non-negative"},
		// The wall-clock baseline gates and the concurrent sweep are gone;
		// their flags must fail as unknown, not be ignored.
		{name: "deleted bench-baseline", args: []string{"-experiment", "E3", "-quick", "-bench-baseline", "b.json"}, want: "flag provided but not defined: -bench-baseline"},
		{name: "deleted bench-concurrent-json", args: []string{"-bench-concurrent-json", "c.json"}, want: "flag provided but not defined: -bench-concurrent-json"},
		{name: "deleted bench-concurrent-baseline", args: []string{"-bench-concurrent-baseline", "c.json"}, want: "flag provided but not defined: -bench-concurrent-baseline"},
		{name: "deleted service-baseline", args: []string{"-service-load", "-quick", "-service-baseline", "s.json"}, want: "flag provided but not defined: -service-baseline"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var b strings.Builder
			err := run(tt.args, &b)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestCommaSeparatedExperiments(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "E3, e6", "-quick"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "E3") || !strings.Contains(out, "E6") {
		t.Errorf("expected both experiments in output:\n%s", out)
	}
}

func TestCommaSeparatedEmpty(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", " , "}, &b); err == nil {
		t.Error("expected error for empty id list")
	}
}

func TestFormatValidatedBeforeRunning(t *testing.T) {
	// A bad -format must fail before any experiment runs: the error
	// arrives with nothing written, rather than after a minutes-long
	// suite has already printed its tables.
	var b strings.Builder
	err := run([]string{"-all", "-format", "jsn"}, &b)
	if err == nil {
		t.Fatal("expected error for unknown format")
	}
	if !strings.Contains(err.Error(), "jsn") {
		t.Errorf("error does not name the bad format: %v", err)
	}
	if b.Len() != 0 {
		t.Errorf("output written before format validation: %q", b.String())
	}
}

func TestParallelFlagDeterministic(t *testing.T) {
	// Identical seed => byte-identical tables regardless of -parallel.
	render := func(parallel string) string {
		var b strings.Builder
		if err := run([]string{"-experiment", "E3", "-quick", "-parallel", parallel}, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if one, many := render("1"), render("7"); one != many {
		t.Errorf("output differs between -parallel 1 and -parallel 7:\n%s\n---\n%s", one, many)
	}
}

func TestMetricsJSONSchemaAndReconciliation(t *testing.T) {
	// E6 is the sifter experiment: every one of its shared-memory steps
	// is a register operation, so three independent views of the same
	// execution must agree exactly — the simulator's step counter, the
	// memory layer's per-object op counters, and the conciliator layer's
	// phase attribution.
	path := filepath.Join(t.TempDir(), "metrics.json")
	var b strings.Builder
	if err := run([]string{"-experiment", "E6", "-quick", "-metrics-json", path}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec metricsRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if rec.Schema != "conciliator-metrics/v1" {
		t.Errorf("schema = %q", rec.Schema)
	}
	if rec.Seed == 0 || rec.Parallelism == 0 {
		t.Errorf("defaults not recorded: seed=%d parallelism=%d", rec.Seed, rec.Parallelism)
	}
	if len(rec.Experiments) != 1 || rec.Experiments[0].ID != "E6" {
		t.Fatalf("experiments = %+v", rec.Experiments)
	}

	tot := rec.Totals
	steps := tot.Counters["sim.steps"]
	if steps <= 0 {
		t.Fatalf("sim.steps = %d", steps)
	}
	if memOps := tot.SumCounters("memory.register.", "memory.snapshot.update", "memory.snapshot.scan",
		"memory.maxreg.read", "memory.maxreg.write"); memOps != steps {
		t.Errorf("memory op counters = %d, sim.steps = %d", memOps, steps)
	}
	if sift := tot.Counters["conciliator.sifter.write_steps"] + tot.Counters["conciliator.sifter.read_steps"]; sift != steps {
		t.Errorf("sifter phase steps = %d, sim.steps = %d", sift, steps)
	}

	// The per-experiment delta must carry the same counters (one
	// experiment ran, so delta == totals for counters it moved) and the
	// histograms must have observations consistent with their counts.
	d := rec.Experiments[0].Metrics
	if d.Counters["sim.steps"] != steps {
		t.Errorf("delta sim.steps = %d, totals = %d", d.Counters["sim.steps"], steps)
	}
	perProc, ok := d.Histograms["conciliator.sifter.steps_per_proc"]
	if !ok || perProc.Count == 0 {
		t.Fatalf("missing sifter per-proc histogram: %+v", d.Histograms)
	}
	if perProc.Sum != steps {
		t.Errorf("per-proc histogram sum = %d, sim.steps = %d", perProc.Sum, steps)
	}
	var bucketTotal int64
	for _, bk := range perProc.Buckets {
		bucketTotal += bk.Count
	}
	if bucketTotal != perProc.Count {
		t.Errorf("bucket counts sum to %d, histogram count = %d", bucketTotal, perProc.Count)
	}
	if lat, ok := d.Histograms["sim.step_latency_ns"]; !ok || lat.Count == 0 {
		t.Errorf("missing step-latency histogram: %+v", d.Histograms)
	}
	if runs := d.Counters["sim.runs"]; runs <= 0 {
		t.Errorf("sim.runs = %d", runs)
	}
}

func TestMetricsTableFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "E6", "-quick", "-metrics"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"metrics:", "sim.steps", "memory.register.read", "conciliator.sifter.steps_per_proc"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics table missing %q:\n%s", want, out)
		}
	}
}

func TestDebugAddrFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-experiment", "E6", "-quick", "-debug-addr", "127.0.0.1:0"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "debug server on http://") {
		t.Errorf("bound debug address not reported:\n%s", b.String())
	}
}

// TestUnreadFlagsRejected: a flag the selected mode does not read is an
// error before anything runs, never silently dropped.
func TestUnreadFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-service-clients", "3", "-experiment", "E3"},
		{"-fault-shrink", "5", "-experiment", "E3"},
		{"-mc", "all", "-metrics-json", "m.json"},
		{"-attack", "all", "-trials", "7"},
		{"-attack", "all", "-timings"},
		{"-des", "-quick"},
		{"-fault", "all", "-format", "markdown"},
		{"-fault-replay", "DES_FAULT_REPRO_server_amnesia.json", "-seed", "3"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var b strings.Builder
			err := run(args, &b)
			if err == nil || !strings.Contains(err.Error(), "cannot be combined") {
				t.Fatalf("err = %v, want a \"cannot be combined\" error", err)
			}
			if b.Len() != 0 {
				t.Errorf("output written before the flags were checked: %q", b.String())
			}
		})
	}
}
