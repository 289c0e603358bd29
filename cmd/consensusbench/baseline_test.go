package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, rec benchRecord) string {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareBaselineHostMismatchSkips: a baseline recorded on a host
// with a different CPU count or GOMAXPROCS must be skipped with a
// warning, not gated on — steps/s are not comparable across host shapes
// (BENCH_concurrent_steps.json was measured on a 1-CPU runner).
func TestCompareBaselineHostMismatchSkips(t *testing.T) {
	entries := []benchEntry{{ID: "concurrent-steps/x", StepsPerSec: 1}}
	tests := []struct {
		name string
		rec  benchRecord
	}{
		{"cpu count differs", benchRecord{
			hostShape:   hostShape{NumCPU: runtime.NumCPU() + 1, GOMAXPROCS: runtime.GOMAXPROCS(0)},
			Experiments: []benchEntry{{ID: "concurrent-steps/x", StepsPerSec: 100}},
		}},
		{"gomaxprocs differs", benchRecord{
			hostShape:   hostShape{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0) + 1},
			Experiments: []benchEntry{{ID: "concurrent-steps/x", StepsPerSec: 100}},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			path := writeBaseline(t, tt.rec)
			var b strings.Builder
			// The entry is 100x below baseline: without the skip this
			// would be a hard regression failure.
			if err := compareBaseline(&b, nil, entries, path, "concurrent-steps/"); err != nil {
				t.Fatalf("host mismatch gated instead of skipping: %v", err)
			}
			out := b.String()
			if !strings.Contains(out, "skipping") || !strings.Contains(out, "not comparable") {
				t.Errorf("no skip warning printed:\n%s", out)
			}
		})
	}
}

// TestCompareBaselineSameHostStillGates: the mismatch skip must not
// disable the gate when the host shape matches the record.
func TestCompareBaselineSameHostStillGates(t *testing.T) {
	path := writeBaseline(t, benchRecord{
		hostShape:   hostShape{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)},
		Experiments: []benchEntry{{ID: "controlled-steps/x", StepsPerSec: 1000}},
	})
	var b strings.Builder
	err := compareBaseline(&b, nil, []benchEntry{{ID: "controlled-steps/x", StepsPerSec: 10}}, path, "controlled-steps/")
	if err == nil {
		t.Fatalf("100x regression on a matching host passed:\n%s", b.String())
	}
	if !strings.Contains(err.Error(), "regressed") {
		t.Errorf("unexpected error: %v", err)
	}

	// And a non-regressed entry still passes.
	b.Reset()
	if err := compareBaseline(&b, nil, []benchEntry{{ID: "controlled-steps/x", StepsPerSec: 990}}, path, "controlled-steps/"); err != nil {
		t.Errorf("healthy entry failed the gate: %v", err)
	}
}

// TestCompareBaselineLegacyRecordWithoutGomaxprocs: records written
// before the gomaxprocs field existed (zero value) are checked on CPU
// count alone rather than spuriously skipped.
func TestCompareBaselineLegacyRecordWithoutGomaxprocs(t *testing.T) {
	path := writeBaseline(t, benchRecord{
		hostShape:   hostShape{NumCPU: runtime.NumCPU()},
		Experiments: []benchEntry{{ID: "controlled-steps/x", StepsPerSec: 1000}},
	})
	var b strings.Builder
	if err := compareBaseline(&b, nil, []benchEntry{{ID: "controlled-steps/x", StepsPerSec: 950}}, path, "controlled-steps/"); err != nil {
		t.Fatalf("legacy record without gomaxprocs was not compared: %v", err)
	}
	if strings.Contains(b.String(), "skipping") {
		t.Errorf("legacy record spuriously skipped:\n%s", b.String())
	}
}

// TestCompareBaselineExactCounts: at the record's seed, quick flag and
// trial count, an entry's steps and slots must equal the record's. The
// check ignores host shape (counts do not depend on it) and steps/s, and
// does not apply to runs at other settings or without a run header.
func TestCompareBaselineExactCounts(t *testing.T) {
	const id = "flat-steps/x"
	run := benchRecord{Seed: 7, Quick: true}
	tests := []struct {
		name     string
		run      *benchRecord
		rec      benchRecord
		entry    benchEntry
		wantFail bool
	}{
		{"counts match", &run,
			benchRecord{Seed: 7, Quick: true},
			benchEntry{ID: id, Steps: 100, Slots: 150, StepsPerSec: 1000}, false},
		{"slots differ", &run,
			benchRecord{Seed: 7, Quick: true},
			benchEntry{ID: id, Steps: 100, Slots: 151, StepsPerSec: 1000}, true},
		{"steps differ", &run,
			benchRecord{Seed: 7, Quick: true},
			benchEntry{ID: id, Steps: 99, Slots: 150, StepsPerSec: 1000}, true},
		{"checked before the host-shape skip", &run,
			benchRecord{Seed: 7, Quick: true, hostShape: hostShape{NumCPU: runtime.NumCPU() + 1}},
			benchEntry{ID: id, Steps: 100, Slots: 151, StepsPerSec: 1000}, true},
		{"other seed", &benchRecord{Seed: 8, Quick: true},
			benchRecord{Seed: 7, Quick: true},
			benchEntry{ID: id, Steps: 99, Slots: 151, StepsPerSec: 1000}, false},
		{"other quick", &benchRecord{Seed: 7},
			benchRecord{Seed: 7, Quick: true},
			benchEntry{ID: id, Steps: 99, Slots: 151, StepsPerSec: 1000}, false},
		{"other trials", &benchRecord{Seed: 7, Quick: true, Trials: 10},
			benchRecord{Seed: 7, Quick: true},
			benchEntry{ID: id, Steps: 99, Slots: 151, StepsPerSec: 1000}, false},
		{"no run header", nil,
			benchRecord{Seed: 7, Quick: true},
			benchEntry{ID: id, Steps: 99, Slots: 151, StepsPerSec: 1000}, false},
		{"experiment entry outside the prefix", &run,
			benchRecord{Seed: 7, Quick: true},
			benchEntry{ID: "E3", Steps: 41, Slots: 80}, true},
		{"experiment entry matches", &run,
			benchRecord{Seed: 7, Quick: true},
			benchEntry{ID: "E3", Steps: 40, Slots: 80}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tt.rec.Experiments = []benchEntry{
				{ID: id, Steps: 100, Slots: 150, StepsPerSec: 1000},
				{ID: "E3", Steps: 40, Slots: 80},
			}
			path := writeBaseline(t, tt.rec)
			var b strings.Builder
			entries := []benchEntry{tt.entry}
			if tt.entry.ID != id {
				// Keep the steps/s comparison something to compare.
				entries = append(entries, benchEntry{ID: id, Steps: 100, Slots: 150, StepsPerSec: 1000})
			}
			err := compareBaseline(&b, tt.run, entries, path, "flat-steps/")
			if tt.wantFail != (err != nil) {
				t.Fatalf("err = %v, want failure %v\n%s", err, tt.wantFail, b.String())
			}
			if err != nil && !strings.Contains(err.Error(), "work counts differ") {
				t.Errorf("unexpected error: %v", err)
			}
		})
	}
}

// TestQuickSuiteCountsMatchRecord runs the quick suite the way
// BENCH_controlled_steps.json was recorded (-all -quick -bench-json) and
// requires the same entries with exactly the record's steps and slots:
// every experiment and every controlled-steps and flat-steps workload.
// Wall-clock figures are not compared; the counts depend only on the
// code, the seed and -quick, so this holds on any host.
func TestQuickSuiteCountsMatchRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick suite")
	}
	const recordPath = "../../BENCH_controlled_steps.json"
	base, err := readBenchRecord(recordPath)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-all", "-quick", "-bench-json", out}, io.Discard); err != nil {
		t.Fatal(err)
	}
	rec, err := readBenchRecord(out)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seed != base.Seed || rec.Quick != base.Quick || rec.Trials != base.Trials {
		t.Fatalf("run settings (seed %d, quick %v, trials %d) differ from the record's (%d, %v, %d)",
			rec.Seed, rec.Quick, rec.Trials, base.Seed, base.Quick, base.Trials)
	}
	var got, want []string
	for _, e := range rec.Experiments {
		got = append(got, e.ID)
	}
	for _, e := range base.Experiments {
		want = append(want, e.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("entries %v, record has %v", got, want)
	}
	if err := checkWorkCounts(&rec, rec.Experiments, base, recordPath); err != nil {
		t.Fatal(err)
	}
}
