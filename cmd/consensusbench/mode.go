package main

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// runMode is one of the command's standalone run shapes. A mode owns
// every flag whose name is its prefix or starts with prefix + "-"; the
// experiment suite owns the remaining flags except the shared ones,
// which a mode reads only if it lists them.
type runMode struct {
	prefix string   // "service", "mc", "attack", "des" or "fault"
	reads  []string // shared flags this mode reads
	// replay names the mode's replay flag, if it has one. A replay takes
	// its whole configuration from an artifact, so it reads none of the
	// mode's other flags and of the shared ones only replayReads.
	replay      string
	replayReads []string
	// experiment is the suite experiment that runs the mode's curated
	// sweep, if there is one.
	experiment string
}

var runModes = []*runMode{
	{prefix: "service", reads: []string{"seed", "quick", "format", "debug-addr"}},
	{prefix: "mc", reads: []string{"seed", "quick", "parallel", "format"}, experiment: "E20"},
	{prefix: "attack", reads: []string{"seed", "quick", "parallel", "format"},
		replay: "attack-replay", replayReads: []string{"parallel"}, experiment: "E19"},
	{prefix: "des", reads: []string{"seed", "format", "trials"}, experiment: "E18"},
	{prefix: "fault", reads: []string{"seed", "quick", "parallel", "trials"}, replay: "fault-replay", experiment: "E17"},
}

// sharedFlags are read by the experiment suite and by every mode that
// lists them in its reads.
var sharedFlags = []string{"seed", "quick", "format", "parallel", "trials", "debug-addr"}

// modeOf returns the mode that owns flag name, or nil for a suite or
// shared flag.
func modeOf(name string) *runMode {
	for _, m := range runModes {
		if name == m.prefix || strings.HasPrefix(name, m.prefix+"-") {
			return m
		}
	}
	return nil
}

// pickMode returns the mode the set flags select (nil: the experiment
// suite, which reads every flag it owns and every shared flag). It
// rejects flags of a second mode and every set flag the chosen mode
// does not read, before anything runs. set holds the flags given on the
// command line, in flag.Visit's lexical order.
func pickMode(set []string) (*runMode, error) {
	var m *runMode
	var trigger string // the first set flag of m, named in errors
	for _, name := range set {
		switch o := modeOf(name); {
		case o == nil || o == m:
		case m == nil:
			m, trigger = o, name
		default:
			return nil, fmt.Errorf("-%s cannot be combined with -%s: one run drives one mode (-service*, -mc*, -attack*, -des* or -fault*)", name, trigger)
		}
	}
	if m == nil {
		return nil, nil
	}
	if m.replay != "" && slices.Contains(set, m.replay) {
		for _, name := range set {
			if name != m.replay && !slices.Contains(m.replayReads, name) {
				reads := "no other flag"
				if len(m.replayReads) > 0 {
					reads = "only " + dashed(m.replayReads)
				}
				return nil, fmt.Errorf("-%s cannot be combined with -%s: a replay takes its configuration from the artifact and reads %s", name, m.replay, reads)
			}
		}
		return m, nil
	}
	for _, name := range set {
		if modeOf(name) == m || slices.Contains(m.reads, name) {
			continue
		}
		msg := fmt.Sprintf("-%s cannot be combined with -%s: the -%s* mode reads only its own flags and %s", name, trigger, m.prefix, dashed(m.reads))
		if !slices.Contains(sharedFlags, name) {
			msg += fmt.Sprintf("; it writes -%s-json, not the experiment suite's -bench-json/-metrics-json records", m.prefix)
			if m.experiment != "" {
				msg += fmt.Sprintf(" (the suite runs the curated sweep as %s)", m.experiment)
			}
		}
		return nil, errors.New(msg)
	}
	return m, nil
}

// dashed renders flag names as "-a, -b, -c".
func dashed(names []string) string {
	return "-" + strings.Join(names, ", -")
}

// parseList parses the comma list val of flag -name: it trims each item,
// skips blank ones and parses the rest with parse. A list that names
// nothing is an error; what names the items in that error.
func parseList[T any](name, what, val string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, item := range strings.Split(val, ",") {
		if item = strings.TrimSpace(item); item == "" {
			continue
		}
		v, err := parse(item)
		if err != nil {
			return nil, fmt.Errorf("-%s: %w", name, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s: no %s in %q", name, what, val)
	}
	return out, nil
}
