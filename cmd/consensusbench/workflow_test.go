package main

import (
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

// workflowCommands returns the argument lists of every
// `go run ./cmd/consensusbench` command in a workflow file, with
// backslash continuations joined, double quotes removed and the command
// cut at the first pipe, redirection or command separator.
func workflowCommands(t *testing.T, path string) [][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const prefix = "go run ./cmd/consensusbench"
	lines := strings.Split(string(data), "\n")
	var cmds [][]string
	for i := 0; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		text := strings.TrimPrefix(line, prefix)
		for strings.HasSuffix(text, `\`) && i+1 < len(lines) {
			i++
			text = strings.TrimSuffix(text, `\`) + " " + strings.TrimSpace(lines[i])
		}
		var args []string
		for _, tok := range strings.Fields(strings.ReplaceAll(text, `"`, "")) {
			if tok == "|" || tok == ";" || tok == "&&" || tok == "||" || strings.ContainsAny(tok[:1], "<>") || strings.HasPrefix(tok, "2>") {
				break
			}
			args = append(args, tok)
		}
		cmds = append(cmds, args)
	}
	return cmds
}

// TestWorkflowCommandLinesParse: every consensusbench command that CI
// and the nightly job run must still parse against this binary's flags,
// with values of the right types, and pass the one-mode check, so that
// deleting or renaming a flag cannot silently break a workflow that
// only runs on the server. Nothing is run: each argument list gets a
// trailing -trials=x, which fails to parse only once every flag before
// it has parsed.
func TestWorkflowCommandLinesParse(t *testing.T) {
	for _, file := range []string{"ci.yml", "nightly.yml"} {
		cmds := workflowCommands(t, "../../.github/workflows/"+file)
		if len(cmds) == 0 {
			t.Fatalf("%s: no consensusbench commands found", file)
		}
		for _, args := range cmds {
			t.Run(file+"/"+strings.Join(args, " "), func(t *testing.T) {
				var set []string
				for i, a := range args {
					if !strings.HasPrefix(a, "-") {
						if i == 0 || !strings.HasPrefix(args[i-1], "-") {
							t.Fatalf("argument %q does not follow a flag", a)
						}
						continue
					}
					name, _, _ := strings.Cut(strings.TrimLeft(a, "-"), "=")
					set = append(set, name)
				}
				if len(set) == 0 {
					t.Fatal("no flags")
				}
				err := run(append(slices.Clone(args), "-trials=x"), io.Discard)
				if err == nil || !strings.Contains(err.Error(), `invalid value "x" for flag -trials`) {
					t.Fatalf("flags did not parse: %v", err)
				}
				// flag.Visit hands pickMode the set flags in lexical order.
				slices.Sort(set)
				if _, err := pickMode(set); err != nil {
					t.Fatalf("mode check: %v", err)
				}
			})
		}
	}
}
