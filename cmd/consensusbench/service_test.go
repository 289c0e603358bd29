package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/service"
)

// runServiceQuick drives the service-load mode with a tiny workload and
// returns the parsed record from path.
func runServiceQuick(t *testing.T, extra ...string) serviceRecord {
	t.Helper()
	path := filepath.Join(t.TempDir(), "svc.json")
	args := append([]string{
		"-service-load", "-quick", "-seed", "7",
		"-service-duration", "150ms", "-service-clients", "4",
		"-service-json", path,
	}, extra...)
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%q): %v\noutput:\n%s", args, err, sb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec serviceRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("record does not parse: %v\n%s", err, data)
	}
	return rec
}

func TestServiceLoadRecord(t *testing.T) {
	rec := runServiceQuick(t, "-service-shards", "1,2")
	if err := rec.Validate(); err != nil {
		t.Fatalf("emitted record does not validate: %v", err)
	}
	if rec.Schema != "rsm-service/v1" {
		t.Fatalf("schema %q", rec.Schema)
	}
	if len(rec.Entries) != 2 {
		t.Fatalf("swept 2 shard counts, got %d entries", len(rec.Entries))
	}
	if rec.Entries[0].ID != "service-load/s=1" || rec.Entries[1].ID != "service-load/s=2" {
		t.Fatalf("entry ids: %q, %q", rec.Entries[0].ID, rec.Entries[1].ID)
	}
	for _, e := range rec.Entries {
		if e.Errors != 0 {
			t.Fatalf("%s: %d errors against an in-process node", e.ID, e.Errors)
		}
		if e.WriteP50us > e.WriteP99us || e.WriteP99us > e.WriteP999us {
			t.Fatalf("%s: quantiles not monotone: p50 %d p99 %d p999 %d",
				e.ID, e.WriteP50us, e.WriteP99us, e.WriteP999us)
		}
	}
	if rec.NumCPU <= 0 || rec.GOMAXPROCS <= 0 || rec.GOOS == "" {
		t.Fatalf("host shape fields missing: %+v", rec)
	}
}

func TestServiceLoadZipfAndProtocol(t *testing.T) {
	rec := runServiceQuick(t, "-service-shards", "1", "-service-skew", "zipf", "-service-protocol", "snapshot")
	if rec.Skew != "zipf" || rec.Protocol != "snapshot" {
		t.Fatalf("record skew %q protocol %q", rec.Skew, rec.Protocol)
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestServiceFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"mode mix mc", []string{"-service-load", "-mc", "all"}},
		{"mode mix attack", []string{"-service-load", "-attack", "all"}},
		{"mode mix des", []string{"-service-load", "-des"}},
		{"mode mix fault", []string{"-service-load", "-fault", "all"}},
		{"mode mix bench", []string{"-service-load", "-bench-json", "x.json"}},
		{"mode mix experiment", []string{"-service-load", "-experiment", "E1"}},
		{"mode mix list", []string{"-service-load", "-list"}},
		{"json without load", []string{"-service-json", "x.json"}},
		{"addr with shards", []string{"-service-load", "-service-addr", "localhost:1", "-service-shards", "1,4"}},
		{"bad format", []string{"-service-load", "-format", "yaml"}},
		{"bad shards", []string{"-service-load", "-service-shards", "1,zero"}},
		{"zero shards", []string{"-service-load", "-service-shards", "0"}},
		{"bad skew", []string{"-service-load", "-service-skew", "pareto"}},
		{"bad read frac", []string{"-service-load", "-service-read-frac", "1.5"}},
		{"bad protocol", []string{"-service-load", "-service-protocol", "paxos"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			if err := run(tc.args, &sb); err == nil {
				t.Fatalf("run(%q) succeeded, want error", tc.args)
			}
		})
	}
}

// TestServiceLoadOverHTTP drives a live node through the -service-addr
// path: the same load generator, but every op crossing a real HTTP hop.
func TestServiceLoadOverHTTP(t *testing.T) {
	node, err := service.Start(service.Config{Shards: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv := httptest.NewServer(service.NewHandler(node))
	defer srv.Close()

	path := filepath.Join(t.TempDir(), "remote.json")
	var sb strings.Builder
	err = run([]string{
		"-service-load", "-seed", "7",
		"-service-duration", "150ms", "-service-clients", "4",
		"-service-addr", strings.TrimPrefix(srv.URL, "http://"),
		"-service-json", path,
	}, &sb)
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec serviceRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Entries) != 1 || rec.Entries[0].ID != "service-load/remote" {
		t.Fatalf("remote entries: %+v", rec.Entries)
	}
	e := rec.Entries[0]
	if e.Errors != 0 || e.Writes == 0 || e.WriteP99us == 0 {
		t.Fatalf("remote load: %+v", e)
	}
	// The remote ops really went through the node's consensus groups.
	var applied int64
	for _, gs := range node.Status().Groups {
		applied += gs.AppliedOps
	}
	if applied != e.Writes {
		t.Fatalf("node applied %d, load reported %d writes", applied, e.Writes)
	}
}

func TestServiceRecordValidate(t *testing.T) {
	good := serviceRecord{
		Schema: "rsm-service/v1",
		Entries: []serviceEntry{{
			ID: "service-load/s=1", Writes: 10, WriteP99us: 100,
			Throughput: 50, WriteThroughput: 40, Batches: 5, BatchMean: 2,
		}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	bad := good
	bad.Schema = "rsm-service/v2"
	if bad.Validate() == nil {
		t.Fatal("wrong schema accepted")
	}
	bad = good
	bad.Entries = nil
	if bad.Validate() == nil {
		t.Fatal("empty record accepted")
	}
	bad = good
	bad.Entries = []serviceEntry{good.Entries[0]}
	bad.Entries[0].WriteP99us = 0
	if bad.Validate() == nil {
		t.Fatal("zero p99 accepted")
	}
}
