// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed time budget, checks that the
// program's outputs are correct, and prints as its last line one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1).
//
//	go build -o perfbench . && ./perfbench --workload svc-closed --seed 1 --seconds 10 --trace 0
//
// run.sh builds it from source and forwards the flags; BENCHMARK.json at
// the repository root lists the workloads and metrics.
//
// Every workload repeats a fixed amount of work (a rep) until the budget
// is spent, and reports medians over reps, so a faster program does more
// reps rather than bigger ones and per-rep quantities such as the live
// heap do not scale with speed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// maxProcs caps GOMAXPROCS so that runs on hosts with more CPUs stay
// comparable with the 2-CPU hosts the benchmark was tuned on.
const maxProcs = 2

func main() {
	os.Exit(run(os.Args[1:], fullSizes, os.Stdout, os.Stderr))
}

func run(args []string, sz sizes, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "time budget of the measured reps")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spansPath := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload in %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	h := hostShape(*workload, *seed, *trace == 1)
	hdr, _ := json.Marshal(h) // plain fields only: cannot fail
	fmt.Fprintln(stdout, string(hdr))

	budget := time.Duration(*seconds) * time.Second
	out, err := measure(w, sz, *seed, budget, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if out.traced != nil {
		path := *spansPath
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", *workload, *seed)
		}
		if err := writeSpans(path, h, out); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(out.traced.spans), path)
	}
	raw, _ := json.Marshal(map[string]any{"raw": out.plain.rawEndToEnd(), "host_speed": out.plain.hostSpeed()})
	fmt.Fprintln(stdout, string(raw))
	line, err := json.Marshal(out.result())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.correct() {
		for _, p := range out.passes() {
			for _, msg := range p.errs {
				fmt.Fprintf(stderr, "perfbench: check failed: %s\n", msg)
			}
		}
		return 1
	}
	return 0
}

// host is the shape of the machine a result came from, carried by every
// output so that results are only compared between like hosts.
type host struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostShape(workload string, seed uint64, traced bool) host {
	return host{
		Workload:   workload,
		Seed:       seed,
		Traced:     traced,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
