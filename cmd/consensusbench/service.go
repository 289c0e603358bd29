// Service-load mode: a seeded closed-loop load generator against the
// consensus-as-a-service node, in-process by default or over HTTP with
// -service-addr, emitting the rsm-service/v1 record.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/experiment"
	"github.com/oblivious-consensus/conciliator/internal/metrics"
	"github.com/oblivious-consensus/conciliator/internal/rsm"
	"github.com/oblivious-consensus/conciliator/internal/service"
	"github.com/oblivious-consensus/conciliator/internal/stats"
)

// serviceFlags carries the -service-* flag group.
type serviceFlags struct {
	load     bool
	shards   string // comma-separated shard counts to sweep, e.g. "1,4"
	pipeline int
	batchMax int
	queue    int
	clients  int
	duration time.Duration
	readFrac float64
	keys     int
	skew     string
	protocol string
	addr     string // drive a remote node over HTTP instead of in-process
	jsonOut  string
}

// serviceRecord is the machine-readable load record written by
// -service-json: one entry per shard count swept, with the host shape
// its wall-clock figures were measured on.
type serviceRecord struct {
	Schema          string  `json:"schema"` // "rsm-service/v1"
	Seed            uint64  `json:"seed"`
	Clients         int     `json:"clients"`
	DurationSeconds float64 `json:"duration_seconds"`
	ReadFrac        float64 `json:"read_frac"`
	Keys            int     `json:"keys"`
	Skew            string  `json:"skew"`
	Protocol        string  `json:"protocol"`
	Pipeline        int     `json:"pipeline"`
	BatchMax        int     `json:"batch_max"`
	hostShape
	Entries []serviceEntry `json:"entries"`
}

// serviceEntry is one swept configuration's end-to-end results. All
// latency quantiles are microseconds, exact nearest-rank over every op.
type serviceEntry struct {
	ID              string  `json:"id"` // "service-load/s=<shards>"
	Shards          int     `json:"shards"`
	WallSeconds     float64 `json:"wall_seconds"`
	Reads           int64   `json:"reads"`
	Writes          int64   `json:"writes"`
	Errors          int64   `json:"errors"`
	Throughput      float64 `json:"ops_per_sec"`
	WriteThroughput float64 `json:"writes_per_sec"`
	WriteP50us      int64   `json:"write_p50_us"`
	WriteP90us      int64   `json:"write_p90_us"`
	WriteP99us      int64   `json:"write_p99_us"`
	WriteP999us     int64   `json:"write_p999_us"`
	ReadP50us       int64   `json:"read_p50_us"`
	ReadP99us       int64   `json:"read_p99_us"`
	Batches         int64   `json:"batches"`
	BatchMean       float64 `json:"batch_mean"`
	BatchP50        int64   `json:"batch_p50"`
	BatchP99        int64   `json:"batch_p99"`
	BatchMaxSeen    int64   `json:"batch_max_seen"`
}

// Validate checks the structural invariants CI's smoke job gates on: a
// versioned schema, at least one entry, and live latency/throughput
// figures in every entry.
func (r *serviceRecord) Validate() error {
	if r.Schema != "rsm-service/v1" {
		return fmt.Errorf("service record schema %q, want rsm-service/v1", r.Schema)
	}
	if len(r.Entries) == 0 {
		return fmt.Errorf("service record has no entries")
	}
	for _, e := range r.Entries {
		if e.Writes <= 0 || e.WriteP99us <= 0 {
			return fmt.Errorf("%s: write p99 %dus over %d writes — record is not live", e.ID, e.WriteP99us, e.Writes)
		}
		if e.Throughput <= 0 || e.WriteThroughput <= 0 {
			return fmt.Errorf("%s: throughput %.1f/%.1f ops/s, want > 0", e.ID, e.Throughput, e.WriteThroughput)
		}
		// Remote entries (Shards == 0) can't observe the node's batch
		// occupancy; in-process entries must carry it.
		if e.Shards > 0 && (e.Batches <= 0 || e.BatchMean <= 0) {
			return fmt.Errorf("%s: batch stats empty (%d batches, mean %.2f)", e.ID, e.Batches, e.BatchMean)
		}
	}
	return nil
}

// runServiceLoad is the -service-load run shape.
func runServiceLoad(out io.Writer, sf *serviceFlags, seed uint64, quick bool, format, debugAddr string) error {
	if !sf.load {
		return fmt.Errorf("-service-* flags require -service-load")
	}
	if sf.addr != "" && sf.shards != "" {
		return fmt.Errorf("-service-addr drives one remote node; -service-shards only applies to in-process sweeps")
	}
	if quick {
		if sf.duration == 0 {
			sf.duration = 500 * time.Millisecond
		}
		if sf.clients == 0 {
			sf.clients = 8
		}
	}
	if sf.duration == 0 {
		sf.duration = 2 * time.Second
	}
	if sf.clients == 0 {
		sf.clients = 16
	}
	if sf.keys == 0 {
		sf.keys = 1024
	}
	if sf.skew == "" {
		sf.skew = service.SkewUniform
	}
	if sf.readFrac == 0 {
		sf.readFrac = 0.25
	}
	if sf.readFrac < 0 || sf.readFrac >= 1 {
		return fmt.Errorf("-service-read-frac %v out of range [0, 1)", sf.readFrac)
	}

	// The service's instruments (batch occupancy, queue depth, shard op
	// counts) live in the metrics registry; service mode always installs
	// one so -debug-addr exposes them mid-run.
	metrics.SetDefault(metrics.New())
	if debugAddr != "" {
		addr, shutdown, err := startDebugServer(debugAddr)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer shutdown()
		fmt.Fprintf(out, "debug server on http://%s/debug/vars (pprof under /debug/pprof/)\n", addr)
	}

	shardCounts, err := parseShardCounts(sf.shards)
	if err != nil {
		return err
	}

	rec := serviceRecord{
		Schema:          "rsm-service/v1",
		Seed:            seed,
		Clients:         sf.clients,
		DurationSeconds: sf.duration.Seconds(),
		ReadFrac:        sf.readFrac,
		Keys:            sf.keys,
		Skew:            sf.skew,
		Protocol:        protoOrDefault(sf.protocol),
		Pipeline:        sf.pipeline,
		BatchMax:        sf.batchMax,
		hostShape:       thisHost(),
	}
	lc := service.LoadConfig{
		Clients:  sf.clients,
		Duration: sf.duration,
		ReadFrac: sf.readFrac,
		Keys:     sf.keys,
		Skew:     sf.skew,
		Seed:     seed,
	}

	if sf.addr != "" {
		rep, err := service.RunLoad(&httpBackend{base: "http://" + strings.TrimPrefix(sf.addr, "http://")}, lc)
		if err != nil {
			return err
		}
		// A remote node keeps its batch occupancy; only latency and
		// throughput are observable from here.
		rec.Entries = append(rec.Entries, buildServiceEntry("service-load/remote", 0, rep, nil))
	} else {
		for _, s := range shardCounts {
			node, err := service.Start(service.Config{
				Shards:     s,
				Pipeline:   sf.pipeline,
				BatchMax:   sf.batchMax,
				QueueDepth: sf.queue,
				Seed:       seed,
				Protocol:   sf.protocol,
			})
			if err != nil {
				return err
			}
			rep, err := service.RunLoad(service.NodeBackend{Node: node}, lc)
			occ := node.BatchOccupancy()
			if cerr := node.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			rec.Entries = append(rec.Entries,
				buildServiceEntry(fmt.Sprintf("service-load/s=%d", s), s, rep, occ))
			// Collect the closed node's garbage (decided logs, KV state)
			// now, between measurements, so it isn't collected during the
			// next configuration's run and charged to its latencies.
			runtime.GC()
		}
	}

	printTable(out, serviceTable(&rec), format)
	if sf.jsonOut != "" {
		if err := rec.Validate(); err != nil {
			return fmt.Errorf("refusing to write invalid record: %w", err)
		}
		if err := writeJSON(sf.jsonOut, "service", rec); err != nil {
			return err
		}
	}
	return nil
}

func protoOrDefault(p string) string {
	if p == "" {
		return "register"
	}
	return p
}

func parseShardCounts(spec string) ([]int, error) {
	if spec == "" {
		spec = "1,4"
	}
	return parseList("service-shards", "shard counts", spec, func(f string) (int, error) {
		s, err := strconv.Atoi(f)
		if err != nil || s <= 0 {
			return 0, fmt.Errorf("bad shard count %q (want positive integers)", f)
		}
		return s, nil
	})
}

func buildServiceEntry(id string, shards int, rep service.LoadReport, occ *stats.IntHist) serviceEntry {
	e := serviceEntry{
		ID:              id,
		Shards:          shards,
		WallSeconds:     rep.Wall.Seconds(),
		Reads:           rep.Reads,
		Writes:          rep.Writes,
		Errors:          rep.Errors,
		Throughput:      rep.Throughput(),
		WriteThroughput: rep.WriteThroughput(),
		WriteP50us:      rep.WriteLat.Quantile(0.50),
		WriteP90us:      rep.WriteLat.Quantile(0.90),
		WriteP99us:      rep.WriteLat.Quantile(0.99),
		WriteP999us:     rep.WriteLat.Quantile(0.999),
		ReadP50us:       rep.ReadLat.Quantile(0.50),
		ReadP99us:       rep.ReadLat.Quantile(0.99),
	}
	if occ != nil {
		e.Batches = occ.N()
		e.BatchMean = occ.Mean()
		e.BatchP50 = occ.Quantile(0.50)
		e.BatchP99 = occ.Quantile(0.99)
		e.BatchMaxSeen = occ.Max()
	}
	return e
}

func serviceTable(rec *serviceRecord) *experiment.Table {
	tbl := &experiment.Table{
		ID: "SERVICE",
		Title: fmt.Sprintf("%d closed-loop clients, %.1fs, read-frac %.2f, skew %s, protocol %s",
			rec.Clients, rec.DurationSeconds, rec.ReadFrac, rec.Skew, rec.Protocol),
		Columns: []string{"config", "writes/s", "ops/s", "w_p50us", "w_p99us", "r_p99us", "batch_mean", "errors"},
	}
	for _, e := range rec.Entries {
		tbl.AddRow(e.ID, fmt.Sprintf("%.0f", e.WriteThroughput), fmt.Sprintf("%.0f", e.Throughput),
			e.WriteP50us, e.WriteP99us, e.ReadP99us, fmt.Sprintf("%.1f", e.BatchMean), e.Errors)
	}
	return tbl
}

// httpBackend drives a remote consensusd node through its client API.
type httpBackend struct {
	base   string
	client http.Client
}

func (b *httpBackend) Read(key string) (string, bool, error) {
	resp, err := b.client.Get(b.base + "/v1/kv/" + key)
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return "", false, nil
	case http.StatusOK:
		var kr struct {
			Value string `json:"value"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&kr); err != nil {
			return "", false, err
		}
		return kr.Value, true, nil
	default:
		io.Copy(io.Discard, resp.Body)
		return "", false, fmt.Errorf("GET %s: status %d", key, resp.StatusCode)
	}
}

func (b *httpBackend) Write(client uint32, op rsm.Op) error {
	var req *http.Request
	var err error
	switch op.Kind {
	case rsm.OpSet:
		req, err = http.NewRequest("PUT", b.base+"/v1/kv/"+op.Key, strings.NewReader(op.Value))
	case rsm.OpDel:
		req, err = http.NewRequest("DELETE", b.base+"/v1/kv/"+op.Key, nil)
	case rsm.OpInc:
		req, err = http.NewRequest("POST", b.base+"/v1/kv/"+op.Key+"/inc", nil)
	default:
		return fmt.Errorf("op kind %v not writable over HTTP", op.Kind)
	}
	if err != nil {
		return err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", req.Method, op.Key, resp.StatusCode)
	}
	return nil
}
