package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func readBenchRecord(t *testing.T, path string) benchRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	return rec
}

// TestQuickSuiteCountsMatchRecord runs the quick suite the way
// BENCH_controlled_steps.json was recorded (-all -quick -bench-json) and
// requires the same entries with exactly the record's steps and slots:
// every experiment and every controlled-steps and flat-steps workload.
// Wall-clock figures are not compared; the counts depend only on the
// code, the seed and -quick, so this holds on any host. The same run
// also pins the record's shape.
func TestQuickSuiteCountsMatchRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick suite")
	}
	const recordPath = "../../BENCH_controlled_steps.json"
	base := readBenchRecord(t, recordPath)
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-all", "-quick", "-bench-json", out}, io.Discard); err != nil {
		t.Fatal(err)
	}
	rec := readBenchRecord(t, out)

	if rec.Schema != "conciliator-bench/v1" {
		t.Errorf("schema = %q", rec.Schema)
	}
	if rec.Seed == 0 || rec.Parallelism == 0 {
		t.Errorf("defaults not recorded: seed=%d parallelism=%d", rec.Seed, rec.Parallelism)
	}
	// The flat-steps workloads are deterministic countdowns, so their
	// step totals have a closed form.
	flatSteps := map[string]int64{
		"flat-steps/round-robin/n=8":  8 * 2048 * flatStepsRuns,
		"flat-steps/round-robin/n=64": 64 * 256 * flatStepsRuns,
		"flat-steps/random/n=64":      64 * 256 * flatStepsRuns,
		"flat-steps/skewed-tail/n=64": (4096 + 63) * flatStepsRuns,
	}
	var ctrlEntries, flatEntries int
	for _, e := range rec.Experiments {
		switch {
		case strings.HasPrefix(e.ID, "controlled-steps/"):
			ctrlEntries++
		case strings.HasPrefix(e.ID, "flat-steps/"):
			flatEntries++
			if want, ok := flatSteps[e.ID]; !ok {
				t.Errorf("unexpected entry %q", e.ID)
			} else if e.Steps != want {
				t.Errorf("%s: steps = %d, want %d", e.ID, e.Steps, want)
			}
		}
		// E18 and E21 run the message-passing DES, which takes no
		// simulator steps; every other entry must have done work.
		if e.ID == "" || (e.ID != "E18" && e.ID != "E21" && (e.Steps <= 0 || e.Slots <= 0)) {
			t.Errorf("degenerate entry: %+v", e)
		}
		if e.Steps > 0 && e.WallSeconds > 0 && e.StepsPerSec <= 0 {
			t.Errorf("steps/sec not computed: %+v", e)
		}
	}
	if ctrlEntries != 4 || flatEntries != 4 {
		t.Errorf("got %d controlled-steps and %d flat-steps entries, want 4 and 4", ctrlEntries, flatEntries)
	}

	for _, d := range countDrift(rec, base) {
		t.Errorf("%s: %s", recordPath, d)
	}
}

// countDrift lists how the modeled work of run differs from the record
// base: other run settings (seed, quick, trials), another entry list, or
// an entry whose steps or slots differ. Steps and slots are a pure
// function of the code and those settings; wall-clock fields and the
// host shape are informational and not compared.
func countDrift(run, base benchRecord) []string {
	if run.Seed != base.Seed || run.Quick != base.Quick || run.Trials != base.Trials {
		return []string{fmt.Sprintf("run settings (seed %d, quick %v, trials %d) differ from the record's (%d, %v, %d)",
			run.Seed, run.Quick, run.Trials, base.Seed, base.Quick, base.Trials)}
	}
	var got, want []string
	for _, e := range run.Experiments {
		got = append(got, e.ID)
	}
	for _, e := range base.Experiments {
		want = append(want, e.ID)
	}
	if !slices.Equal(got, want) {
		return []string{fmt.Sprintf("entries %v, record has %v", got, want)}
	}
	var drift []string
	for i, e := range run.Experiments {
		if b := base.Experiments[i]; e.Steps != b.Steps || e.Slots != b.Slots {
			drift = append(drift, fmt.Sprintf("%s: steps %d, slots %d; the record has steps %d, slots %d",
				e.ID, e.Steps, e.Slots, b.Steps, b.Slots))
		}
	}
	return drift
}

// TestCountDrift pins the comparison TestQuickSuiteCountsMatchRecord
// gates on: any change to an entry's steps or slots, to the entry list
// or to the run settings is reported, and every drifted entry is named;
// wall-clock figures and the host shape never are.
func TestCountDrift(t *testing.T) {
	base := benchRecord{
		Schema: "conciliator-bench/v1", Seed: 7, Quick: true, Parallelism: 2,
		hostShape:        hostShape{GOOS: "linux", GOARCH: "amd64", NumCPU: 2, GOMAXPROCS: 2},
		TotalWallSeconds: 3,
		Experiments: []benchEntry{
			{ID: "E3", WallSeconds: 1, Steps: 40, Slots: 80, StepsPerSec: 40, SlotsPerSec: 80},
			{ID: "flat-steps/x", WallSeconds: 2, Steps: 100, Slots: 150, StepsPerSec: 50, SlotsPerSec: 75},
		},
	}
	tests := []struct {
		name  string
		edit  func(r *benchRecord)
		drift []string // substrings, one per expected drift line
	}{
		{"identical", func(r *benchRecord) {}, nil},
		{"steps differ", func(r *benchRecord) { r.Experiments[1].Steps = 99 }, []string{"flat-steps/x: steps 99, slots 150; the record has steps 100"}},
		{"slots differ", func(r *benchRecord) { r.Experiments[1].Slots = 151 }, []string{"flat-steps/x: steps 100, slots 151; the record has steps 100, slots 150"}},
		{"experiment entry differs", func(r *benchRecord) { r.Experiments[0].Steps = 41 }, []string{"E3: steps 41"}},
		{"every drifted entry named", func(r *benchRecord) {
			r.Experiments[0].Slots = 81
			r.Experiments[1].Steps = 101
		}, []string{"E3:", "flat-steps/x:"}},
		{"other seed", func(r *benchRecord) { r.Seed = 8 }, []string{"run settings (seed 8"}},
		{"other quick", func(r *benchRecord) { r.Quick = false }, []string{"quick false"}},
		{"other trials", func(r *benchRecord) { r.Trials = 10 }, []string{"trials 10"}},
		{"entry missing", func(r *benchRecord) { r.Experiments = r.Experiments[:1] }, []string{"entries [E3], record has [E3 flat-steps/x]"}},
		{"entry added", func(r *benchRecord) {
			r.Experiments = append(r.Experiments, benchEntry{ID: "E4", Steps: 1, Slots: 1})
		}, []string{"entries [E3 flat-steps/x E4]"}},
		{"entries reordered", func(r *benchRecord) {
			r.Experiments[0], r.Experiments[1] = r.Experiments[1], r.Experiments[0]
		}, []string{"entries [flat-steps/x E3]"}},
		{"wall clock differs", func(r *benchRecord) {
			r.TotalWallSeconds = 300
			for i := range r.Experiments {
				r.Experiments[i].WallSeconds *= 100
				r.Experiments[i].StepsPerSec /= 100
				r.Experiments[i].SlotsPerSec /= 100
			}
		}, nil},
		{"host shape differs", func(r *benchRecord) {
			r.hostShape = hostShape{GOOS: "darwin", GOARCH: "arm64", NumCPU: 64, GOMAXPROCS: 8}
			r.Parallelism = 64
		}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			run := base
			run.Experiments = slices.Clone(base.Experiments)
			tt.edit(&run)
			got := countDrift(run, base)
			if len(got) != len(tt.drift) {
				t.Fatalf("drift %q, want %d line(s) containing %q", got, len(tt.drift), tt.drift)
			}
			for i, want := range tt.drift {
				if !strings.Contains(got[i], want) {
					t.Errorf("drift line %q does not contain %q", got[i], want)
				}
			}
		})
	}
}
