// Seeded closed-loop load generator for the consensus service.
//
// Each client worker owns an independent named fork of the root RNG, so
// the op stream per client — keys, kinds, values — is a pure function of
// (seed, client index) regardless of how the scheduler interleaves the
// workers. Latency is wall-clock end-to-end (enqueue through applied
// batch), recorded in microseconds into worker-local stats.LogHist
// instances and merged once at the end.
package service

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/rsm"
	"github.com/oblivious-consensus/conciliator/internal/stats"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// maxLatencyUs clamps recorded latencies: anything slower than a second
// reports as one second. The histogram's footprint is fixed regardless
// (see latSub), so the clamp only keeps the reported tail sane.
const maxLatencyUs = 1_000_000

// latSub is the latency histograms' log-linear resolution: 64 buckets
// per octave bounds the quantile error at ~1.6% while keeping every
// histogram ~30 KB, allocated once. Recording latencies into a dense
// exact histogram is a trap this load generator walked into first: one
// one-second outlier grows a µs-indexed dense table to 8 MB, and dozens
// of clients re-growing tables on one CPU feed back into the very tail
// latencies being measured until throughput collapses ~200x.
const latSub = 64

// Skew names for LoadConfig.Skew.
const (
	SkewUniform = "uniform"
	SkewZipf    = "zipf"
)

// zipfExponent shapes the zipf key popularity: rank r is drawn with
// probability proportional to 1/(r+1)^s. 1.1 gives a hot head without
// collapsing onto a single key.
const zipfExponent = 1.1

// Backend is the surface the load generator drives: the in-process Node
// directly, or a remote node over HTTP.
type Backend interface {
	// Read fetches a key from applied state.
	Read(key string) (value string, found bool, err error)
	// Write submits one mutating op for client and blocks until it has
	// committed and applied.
	Write(client uint32, op rsm.Op) error
}

// NodeBackend adapts an in-process Node to the Backend surface.
type NodeBackend struct{ Node *Node }

func (b NodeBackend) Read(key string) (string, bool, error) {
	v, ok := b.Node.Get(key)
	return v, ok, nil
}

func (b NodeBackend) Write(client uint32, op rsm.Op) error {
	_, err := b.Node.Submit(client, op)
	return err
}

// LoadConfig parameterizes one load-generator run.
type LoadConfig struct {
	Clients  int           // concurrent closed-loop clients (default 8)
	Duration time.Duration // wall-clock run length (default 1s)
	ReadFrac float64       // fraction of ops that are reads (default 0.5)
	Keys     int           // keyspace size (default 1024)
	Skew     string        // SkewUniform or SkewZipf (default uniform)
	Seed     uint64        // root seed for all client streams
}

func (c *LoadConfig) defaults() error {
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.Duration == 0 {
		c.Duration = time.Second
	}
	if c.Keys == 0 {
		c.Keys = 1024
	}
	if c.Skew == "" {
		c.Skew = SkewUniform
	}
	if c.Skew != SkewUniform && c.Skew != SkewZipf {
		return fmt.Errorf("service: unknown skew %q (want %q or %q)", c.Skew, SkewUniform, SkewZipf)
	}
	if c.Clients < 0 || c.Keys < 0 || c.Duration < 0 || c.ReadFrac < 0 || c.ReadFrac > 1 {
		return fmt.Errorf("service: bad load config %+v", *c)
	}
	return nil
}

// LoadReport aggregates one run: op counts, error count, and merged
// latency histograms in microseconds (log-linear, ≤1/latSub relative
// quantile error, exact min/max/mean).
type LoadReport struct {
	Wall     time.Duration
	Reads    int64
	Writes   int64
	Errors   int64
	ReadLat  *stats.LogHist
	WriteLat *stats.LogHist
}

// Throughput returns total committed ops per second.
func (r LoadReport) Throughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Reads+r.Writes) / r.Wall.Seconds()
}

// WriteThroughput returns committed writes per second.
func (r LoadReport) WriteThroughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Writes) / r.Wall.Seconds()
}

// RunLoad drives cfg.Clients closed-loop workers against the backend
// until cfg.Duration elapses, then waits for every in-flight op to
// complete before reporting.
func RunLoad(b Backend, cfg LoadConfig) (LoadReport, error) {
	if err := cfg.defaults(); err != nil {
		return LoadReport{}, err
	}
	root := xrand.New(cfg.Seed)
	sampler := newKeySampler(cfg.Skew, cfg.Keys)

	type workerStats struct {
		reads, writes, errs int64
		readLat, writeLat   *stats.LogHist
	}
	results := make([]workerStats, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for c := 0; c < cfg.Clients; c++ {
		// Fork before spawning: root is not goroutine-safe.
		rng := root.ForkNamed(uint64(c))
		wg.Add(1)
		go func(client int, rng *xrand.Rand) {
			defer wg.Done()
			ws := &results[client]
			ws.readLat = stats.NewLogHist(latSub)
			ws.writeLat = stats.NewLogHist(latSub)
			for time.Now().Before(deadline) {
				key := sampler.key(rng)
				opStart := time.Now()
				if rng.Float64() < cfg.ReadFrac {
					if _, _, err := b.Read(key); err != nil {
						ws.errs++
						continue
					}
					ws.readLat.Add(clampLatency(time.Since(opStart)))
					ws.reads++
					continue
				}
				if err := b.Write(uint32(client), randOp(rng, key)); err != nil {
					ws.errs++
					continue
				}
				ws.writeLat.Add(clampLatency(time.Since(opStart)))
				ws.writes++
			}
		}(c, rng)
	}
	wg.Wait()

	rep := LoadReport{
		Wall:     time.Since(start),
		ReadLat:  stats.NewLogHist(latSub),
		WriteLat: stats.NewLogHist(latSub),
	}
	for i := range results {
		ws := &results[i]
		rep.Reads += ws.reads
		rep.Writes += ws.writes
		rep.Errors += ws.errs
		rep.ReadLat.Merge(ws.readLat)
		rep.WriteLat.Merge(ws.writeLat)
	}
	return rep, nil
}

func clampLatency(d time.Duration) int64 {
	us := d.Microseconds()
	if us < 0 {
		return 0
	}
	if us > maxLatencyUs {
		return maxLatencyUs
	}
	return us
}

// randOp draws one mutating op: mostly sets, a good share of increments
// (they exercise read-modify-write through the applied state), a few
// deletes to churn the keyspace.
func randOp(rng *xrand.Rand, key string) rsm.Op {
	switch r := rng.Float64(); {
	case r < 0.5:
		return rsm.Op{Kind: rsm.OpSet, Key: key, Value: fmt.Sprintf("v%d", rng.Uint64n(1<<20))}
	case r < 0.9:
		return rsm.Op{Kind: rsm.OpInc, Key: key}
	default:
		return rsm.Op{Kind: rsm.OpDel, Key: key}
	}
}

// keySampler draws key indices under the configured skew and renders
// them as fixed-width key names.
type keySampler struct {
	keys []string  // pre-rendered key names
	cdf  []float64 // nil for uniform; cumulative zipf weights otherwise
}

func newKeySampler(skew string, n int) *keySampler {
	s := &keySampler{keys: make([]string, n)}
	for i := range s.keys {
		s.keys[i] = fmt.Sprintf("k%05d", i)
	}
	if skew == SkewZipf {
		s.cdf = make([]float64, n)
		total := 0.0
		for i := 0; i < n; i++ {
			total += 1 / math.Pow(float64(i+1), zipfExponent)
			s.cdf[i] = total
		}
		for i := range s.cdf {
			s.cdf[i] /= total
		}
	}
	return s
}

func (s *keySampler) key(rng *xrand.Rand) string {
	if s.cdf == nil {
		return s.keys[rng.Intn(len(s.keys))]
	}
	u := rng.Float64()
	i := sort.SearchFloat64s(s.cdf, u)
	if i >= len(s.keys) {
		i = len(s.keys) - 1
	}
	return s.keys[i]
}
