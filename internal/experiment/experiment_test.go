package experiment

import (
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 21 {
		t.Fatalf("%d experiments registered, want 21", len(all))
	}
	seen := make(map[string]bool)
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if len(IDs()) != 21 {
		t.Fatalf("IDs() returned %d", len(IDs()))
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E1"); !ok {
		t.Fatal("E1 missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("E99 should not exist")
	}
}

func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tables := e.Run(Params{Quick: true, Trials: 5})
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tbl := range tables {
				if len(tbl.Columns) == 0 {
					t.Fatalf("table %s has no columns", tbl.ID)
				}
				if len(tbl.Rows) == 0 {
					t.Fatalf("table %s has no rows", tbl.ID)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Columns) {
						t.Fatalf("table %s row width %d != %d columns", tbl.ID, len(row), len(tbl.Columns))
					}
				}
				if !strings.Contains(tbl.Markdown(), tbl.Title) {
					t.Fatalf("markdown missing title for %s", tbl.ID)
				}
				if tbl.TSV() == "" || tbl.Text() == "" {
					t.Fatalf("empty rendering for %s", tbl.ID)
				}
			}
		})
	}
}

func TestE1DecayRespectsBoundsQuick(t *testing.T) {
	e, _ := ByID("E1")
	tables := e.Run(Params{Quick: true, Trials: 30})
	tbl := tables[0]
	for _, row := range tbl.Rows {
		mean, err1 := strconv.ParseFloat(row[2], 64)
		bound, err2 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable row %v", row)
		}
		// Allow generous sampling slack (2x + 1).
		if mean > 2*bound+1 {
			t.Fatalf("row %v: mean %v far above bound %v", row, mean, bound)
		}
	}
}

func TestE4DecayRespectsBoundsQuick(t *testing.T) {
	e, _ := ByID("E4")
	tables := e.Run(Params{Quick: true, Trials: 30})
	for _, row := range tables[0].Rows {
		mean, _ := strconv.ParseFloat(row[2], 64)
		bound, _ := strconv.ParseFloat(row[3], 64)
		if mean > 2*bound+1 {
			t.Fatalf("row %v: mean %v far above bound %v", row, mean, bound)
		}
	}
}

func TestE2AgreementAboveFloorQuick(t *testing.T) {
	e, _ := ByID("E2")
	tables := e.Run(Params{Quick: true, Trials: 30})
	for _, row := range tables[0].Rows {
		rate := parseRate(t, row[2])
		floor, _ := strconv.ParseFloat(row[3], 64)
		// Allow sampling noise below the floor only marginally.
		if rate < floor-0.15 {
			t.Fatalf("row %v: rate %v far below floor %v", row, rate, floor)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	e, _ := ByID("E3")
	a := e.Run(Params{Quick: true})
	b := e.Run(Params{Quick: true})
	if a[0].Markdown() != b[0].Markdown() {
		t.Fatal("E3 output not deterministic in the master seed")
	}
}

func TestSeedsForDisjointStreams(t *testing.T) {
	seeds := seedsFor(1, 100)
	seen := make(map[uint64]bool)
	for _, s := range seeds {
		if s.alg == s.sched {
			t.Fatal("algorithm and schedule seeds collided")
		}
		if seen[s.alg] || seen[s.sched] {
			t.Fatal("seed reuse across trials")
		}
		seen[s.alg], seen[s.sched] = true, true
	}
}

// TestRunTrialsContract pins the trial runner: every trial runs exactly
// once, with its own seed, and its result comes back at its own index —
// serially, with fewer workers than trials, and with more. Later trials
// finish first, so a runner that collected results in completion order
// would fail.
func TestRunTrialsContract(t *testing.T) {
	for _, trials := range []int{0, 1, 2, 64} {
		for _, parallelism := range []int{1, 3, 64, 200} {
			seeds := make([]int, trials)
			for i := range seeds {
				seeds[i] = 1000 + 7*i
			}
			runs := make([]atomic.Int32, trials)
			got := runTrials(Params{Parallelism: parallelism}, seeds, func(trial, seed int) [2]int {
				runs[trial].Add(1)
				time.Sleep(time.Duration((trials-trial)%4) * 50 * time.Microsecond)
				return [2]int{trial, seed}
			})
			if len(got) != trials {
				t.Fatalf("trials %d, parallelism %d: %d results", trials, parallelism, len(got))
			}
			for i := range got {
				if n := runs[i].Load(); n != 1 {
					t.Errorf("trials %d, parallelism %d: trial %d ran %d times", trials, parallelism, i, n)
				}
				if want := [2]int{i, seeds[i]}; got[i] != want {
					t.Errorf("trials %d, parallelism %d: result %d = %v, want %v", trials, parallelism, i, got[i], want)
				}
			}
		}
	}
}

func TestWorkloads(t *testing.T) {
	d := distinctInputs(4)
	for i, v := range d {
		if v != i {
			t.Fatalf("distinctInputs = %v", d)
		}
	}
	b := binaryInputs(5)
	want := []int{0, 1, 0, 1, 0}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("binaryInputs = %v", b)
		}
	}
}

func TestAgreeHelper(t *testing.T) {
	tests := []struct {
		name string
		outs []int
		fin  []bool
		want bool
	}{
		{name: "all agree", outs: []int{1, 1, 1}, fin: []bool{true, true, true}, want: true},
		{name: "disagree", outs: []int{1, 2, 1}, fin: []bool{true, true, true}, want: false},
		{name: "disagreement crashed away", outs: []int{1, 2, 1}, fin: []bool{true, false, true}, want: true},
		{name: "none finished", outs: []int{1, 2}, fin: []bool{false, false}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := agree(tt.outs, tt.fin); got != tt.want {
				t.Errorf("agree = %v", got)
			}
		})
	}
}

func parseRate(t *testing.T, cell string) float64 {
	t.Helper()
	fields := strings.Fields(cell)
	if len(fields) == 0 {
		t.Fatalf("empty rate cell %q", cell)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		t.Fatalf("unparseable rate %q", cell)
	}
	return v
}

func TestTrimFloat(t *testing.T) {
	tests := []struct {
		give float64
		want string
	}{
		{1, "1"}, {1.5, "1.5"}, {0.125, "0.125"}, {0.1239, "0.124"}, {-2, "-2"}, {0, "0"},
	}
	for _, tt := range tests {
		if got := trimFloat(tt.give); got != tt.want {
			t.Errorf("trimFloat(%v) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{ID: "T", Title: "demo", Columns: []string{"a", "b"}, Notes: []string{"note"}}
	tbl.AddRow(1, "x")
	tbl.AddRow(2.5, "y")
	md := tbl.Markdown()
	for _, want := range []string{"| a | b |", "| 1 | x |", "| 2.5 | y |", "note"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	tsv := tbl.TSV()
	if !strings.HasPrefix(tsv, "a\tb\n") {
		t.Errorf("tsv header wrong: %q", tsv)
	}
	txt := tbl.Text()
	if !strings.Contains(txt, "demo") {
		t.Errorf("text missing title: %q", txt)
	}
}

// TestTablesIdenticalAcrossParallelism is the determinism contract of
// the trial runner: identical seed => byte-identical tables no matter
// how many workers run the trials. It covers every experiment whose
// cells run trials through runTrials.
func TestTablesIdenticalAcrossParallelism(t *testing.T) {
	wide := runtime.NumCPU() + 3
	for _, id := range []string{"E1", "E2", "E4", "E5", "E7", "E8", "E10", "E11", "E12", "E13", "E14", "E16", "E17", "E18", "E21"} {
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s missing", id)
			}
			render := func(parallelism int) string {
				var b strings.Builder
				for _, tbl := range e.Run(Params{Quick: true, Parallelism: parallelism}) {
					b.WriteString(tbl.TSV())
				}
				return b.String()
			}
			if serial, parallel := render(1), render(wide); serial != parallel {
				t.Errorf("tables differ between Parallelism 1 and %d:\n%s\n---\n%s", wide, serial, parallel)
			}
		})
	}
}
