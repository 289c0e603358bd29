package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/rsm"
	"github.com/oblivious-consensus/conciliator/internal/service"
)

var tinySizes = sizes{
	minReps:        2,
	closedWarm:     20,
	closedOps:      100,
	openWarm:       10,
	openArrivals:   200,
	openRate:       4000,
	mcN:            8,
	mcWarmTrials:   16,
	mcTrials:       32,
	mcJobs:         3,
	mcReplayTrials: 8,
	desN:           200,
	desWarmN:       50,
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEveryMetricPrintsWithUnit runs every workload, untraced and
// traced, and checks the last line against BENCHMARK.json: exactly its
// metrics, each with its unit, and a first line carrying the host shape.
func TestEveryMetricPrintsWithUnit(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"svc-closed", "svc-open", "engine-mc", "des-scale"}) || len(workloads) != len(names) {
		t.Fatalf("BENCHMARK.json workloads %v do not match the program's %v", names, workloadNames())
	}
	for _, w := range names {
		for trace, want := range [][]benchMetric{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w, "--seed", "7", "--seconds", "1", "--trace", string(rune('0' + trace)),
				"--spans", filepath.Join(t.TempDir(), "spans.jsonl")}
			if code := run(args, tinySizes, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d: %s", w, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var h host
			if err := json.Unmarshal([]byte(lines[0]), &h); err != nil || h.Seed != 7 || h.NumCPU == 0 || h.GOMAXPROCS == 0 || h.GoVersion == "" {
				t.Errorf("%s trace %d: host line %q (%v)", w, trace, lines[0], err)
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d failed of %d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %q", w, trace, m.Name, got, m.Unit)
				}
				if trace == 0 && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptedReplayFails checks that the decided-log replay reports a
// tampered log, a lost slot and a lost acknowledgement as failed ops.
func TestCorruptedReplayFails(t *testing.T) {
	node, err := service.Start(service.Config{Shards: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := node.Submit(1, rsm.Op{Kind: rsm.OpSet, Key: keys[i%4], Value: "v" + keys[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	log, fp := node.DecidedLog(0), node.KVFingerprint(0)
	var rs replayStats
	if failed, errs := checkReplay([][]string{log}, []string{fp}, 20, &rs, nil); failed != 0 || errs != nil {
		t.Fatalf("clean log: %d failed, %v", failed, errs)
	}
	last := len(log) - 1
	tampered := append([]string(nil), log...)
	tampered[last] = strings.Replace(tampered[last], `"v`, `"w`, 1)
	garbled := append([]string(nil), log...)
	garbled[0] = "x" + garbled[0]
	for name, c := range map[string]struct {
		log   []string
		acked int64
	}{
		"tampered value": {tampered, 20},
		"garbled batch":  {garbled, 20},
		"lost slot":      {log[:last], 20},
		"lost ack":       {log, 19},
	} {
		failed, errs := checkReplay([][]string{c.log}, []string{fp}, c.acked, &rs, nil)
		if failed < 1 || len(errs) == 0 {
			t.Errorf("%s: %d failed, %v; want a failure", name, failed, errs)
		}
	}
}

// TestLayerCountsRepeat checks that the exact counts of the engine-mc
// and des-scale layers repeat for a fixed seed.
func TestLayerCountsRepeat(t *testing.T) {
	counts := map[string][]string{
		"engine-mc": {"consensus.phases_mean", "consensus.steps_p99", "sim.noop_frac"},
		"des-scale": {"des.events_per_op", "des.retransmits", "des.dup_drops", "des.virtual_ms"},
	}
	for w, names := range counts {
		var runs [2]map[string]float64
		for i := range runs {
			o, err := measure(workloads[w], tinySizes, 11, time.Second, true)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = o.traced.layer
		}
		for _, n := range names {
			if runs[0][n] == 0 || runs[0][n] != runs[1][n] {
				t.Errorf("%s %s: %v then %v, want the same nonzero count", w, n, runs[0][n], runs[1][n])
			}
		}
	}
}
