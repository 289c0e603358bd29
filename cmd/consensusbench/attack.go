package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"

	"github.com/oblivious-consensus/conciliator/internal/attack/search"
	"github.com/oblivious-consensus/conciliator/internal/experiment"
)

// attackFlags is the -attack* flag surface.
type attackFlags struct {
	spec    string // -attack: protocols to search, comma-separated or "all"
	jsonOut string // -attack-json: write attack-record/v1 artifacts
	replay  string // -attack-replay: replay a committed artifact
	n       int    // -attack-n
	budget  int    // -attack-budget
	trials  int    // -attack-trials
	faults  bool   // -attack-faults
}

// validate parses and checks every -attack-* value of a search,
// returning the resolved protocol list.
func (f *attackFlags) validate() ([]string, error) {
	if f.spec == "" {
		return nil, fmt.Errorf("-attack-json/-attack-n/-attack-budget/-attack-trials/-attack-faults require -attack")
	}
	var protocols []string
	if f.spec == "all" {
		protocols = search.Protocols()
	} else {
		var err error
		protocols, err = parseList("attack", "protocols", f.spec, func(s string) (string, error) {
			if !slices.Contains(search.Protocols(), s) {
				return "", fmt.Errorf("unknown protocol %q (want all, %s)", s, strings.Join(search.Protocols(), ", "))
			}
			return s, nil
		})
		if err != nil {
			return nil, err
		}
	}
	if f.n < 0 || f.n == 1 || f.n > 64 {
		return nil, fmt.Errorf("-attack-n: %d outside [2, 64]", f.n)
	}
	if f.budget < 0 {
		return nil, fmt.Errorf("-attack-budget: %d must be positive", f.budget)
	}
	if f.trials < 0 {
		return nil, fmt.Errorf("-attack-trials: %d must be positive", f.trials)
	}
	return protocols, nil
}

// attackArtifactPath derives the per-protocol artifact path from the
// -attack-json base: "dir/ATTACK.json" becomes "dir/ATTACK_sifter.json".
// With a single protocol the base path is used as given.
func attackArtifactPath(base, protocol string, multi bool) string {
	if !multi {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "_" + protocol + ext
}

// runAttackSearch executes the flag-driven adversary search: one search
// per requested protocol, a result table, and optionally one committed
// attack-record/v1 artifact per protocol. Deterministic in (seed, flags);
// -parallel only changes wall-clock time.
func runAttackSearch(out io.Writer, af *attackFlags, seed uint64, quick bool, parallel int, format string) error {
	protocols, err := af.validate()
	if err != nil {
		return err
	}
	n, budget, trials := af.n, af.budget, af.trials
	if n == 0 {
		n = 8
		if quick {
			n = 4
		}
	}
	if budget == 0 {
		budget = 64
		if quick {
			budget = 16
		}
	}
	if trials == 0 {
		trials = 4
		if quick {
			trials = 2
		}
	}

	tbl := experiment.Table{
		ID:      "ATTACK",
		Title:   fmt.Sprintf("oblivious adversary search (n=%d, budget=%d evaluations, %d trials/candidate)", n, budget, trials),
		Columns: []string{"protocol", "evaluations", "round-robin steps", "best oblivious steps", "white-box steps", "phases best/wb", "undecided"},
		Notes: []string{
			"Steps are mean max individual steps to decision on fresh " +
				"confirmation seeds. The white-box column grafts the " +
				"coin-aware phase-1 freeze onto the winner's own schedule " +
				"and must dominate the oblivious column (Section 1.1).",
		},
	}
	for _, protocol := range protocols {
		res, err := search.Search(search.Config{
			Protocol:    protocol,
			N:           n,
			Seed:        seed,
			Budget:      budget,
			EvalTrials:  trials,
			Faults:      af.faults,
			Parallelism: parallel,
		})
		if err != nil {
			return fmt.Errorf("attack search %s: %w", protocol, err)
		}
		tbl.AddRow(
			protocol,
			res.Evaluations,
			res.Baselines["round-robin"].StepsMean,
			res.Confirm.StepsMean,
			res.WhiteBox.StepsMean,
			fmt.Sprintf("%.1f/%.1f", res.Confirm.PhasesMean, res.WhiteBox.PhasesMean),
			res.Confirm.Undecided,
		)
		if af.jsonOut != "" {
			path := attackArtifactPath(af.jsonOut, protocol, len(protocols) > 1)
			if err := search.NewRecord(res).Save(path); err != nil {
				return fmt.Errorf("writing attack record: %w", err)
			}
			fmt.Fprintf(out, "attack: wrote %s\n", path)
		}
	}
	printTable(out, &tbl, format)
	return nil
}

// runAttackReplay re-runs a committed artifact's search from its recorded
// configuration and verifies the regenerated artifact is byte-identical —
// the CI check that committed attack records have not rotted.
func runAttackReplay(out io.Writer, path string, parallel int) error {
	rec, err := search.LoadRecord(path)
	if err != nil {
		return fmt.Errorf("attack-replay: %w", err)
	}
	want, err := rec.Encode()
	if err != nil {
		return fmt.Errorf("attack-replay: %w", err)
	}
	fresh, err := search.Replay(rec, parallel)
	if err != nil {
		return fmt.Errorf("attack-replay: %w", err)
	}
	got, err := fresh.Encode()
	if err != nil {
		return fmt.Errorf("attack-replay: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("attack-replay: %s did not replay byte-identically: the search or its schedule family changed; regenerate with -attack -attack-json", path)
	}
	fmt.Fprintf(out, "attack-replay: %s replayed byte-identically (protocol=%s n=%d evaluations=%d best=%.2f whitebox=%.2f)\n",
		path, rec.Protocol, rec.N, rec.Evaluations, rec.Confirm.StepsMean, rec.WhiteBox.StepsMean)
	return nil
}
