package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden experiment tables")

// TestGoldenTables pins the rendered quick-mode output of every
// experiment at the default master seed. Experiments promise to be
// deterministic in (Seed, Trials) and byte-identical for any
// -parallel value; these goldens turn that promise into a regression
// test that catches any accidental reseeding, iteration-order change, or
// table-format drift. Regenerate intentionally with:
//
//	go test ./internal/experiment -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	cases := []struct {
		id       string
		parallel int // prove parallelism-independence by mixing values
	}{
		{id: "E1", parallel: 1},
		{id: "E2", parallel: 6},
		{id: "E3", parallel: 1},
		{id: "E4", parallel: 2},
		{id: "E5", parallel: 3},
		{id: "E6", parallel: 3},
		{id: "E7", parallel: 2},
		{id: "E8", parallel: 4},
		{id: "E9", parallel: 4},
		{id: "E10", parallel: 5},
		{id: "E11", parallel: 7},
		{id: "E12", parallel: 8}, // one worker per trial
		{id: "E13", parallel: 9},
		{id: "E14", parallel: 12}, // more workers than trials
		{id: "E15", parallel: 16},
		{id: "E16", parallel: 64},
		{id: "E17", parallel: 5}, // fault sweep: faulted runs must replay byte-identically too
		{id: "E18", parallel: 3}, // DES: virtual-time runs must replay byte-identically
		{id: "E19", parallel: 2}, // attack search: the whole evolutionary loop must replay byte-identically
		{id: "E20", parallel: 4}, // flat-engine Monte Carlo: worker-count independence of the streaming aggregate
		{id: "E21", parallel: 3}, // chaos matrix: crash/restart schedules must replay byte-identically
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			t.Parallel()
			e, ok := ByID(tc.id)
			if !ok {
				t.Fatalf("unknown experiment %s", tc.id)
			}
			var b strings.Builder
			for _, tbl := range e.Run(Params{Quick: true, Trials: 8, Parallelism: tc.parallel}) {
				fmt.Fprintln(&b, tbl.Text())
			}
			got := b.String()
			path := filepath.Join("testdata", "golden_"+strings.ToLower(tc.id)+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output drifted from golden file %s.\ngot:\n%s\nwant:\n%s", tc.id, path, got, want)
			}
		})
	}
}
