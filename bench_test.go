// Benchmarks: one per reproduction experiment (see DESIGN.md's experiment
// index). Each benchmark measures full controlled-mode executions of the
// protocol under a fresh oblivious schedule per iteration and reports the
// model-level cost metrics (shared-memory steps) alongside wall-clock
// time, so `go test -bench . -benchmem` regenerates the shape of every
// table: who wins, by what factor, and where the crossovers fall.
package conciliator_test

import (
	"fmt"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/adoptcommit"
	core "github.com/oblivious-consensus/conciliator/internal/conciliator"
	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/memory"
	"github.com/oblivious-consensus/conciliator/internal/metrics"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/tas"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

func benchInputs(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = i
	}
	return in
}

// benchRun executes one controlled run of body and returns the result.
func benchRun(b *testing.B, n int, algSeed, schedSeed uint64, body func(p *sim.Proc) int) sim.Result {
	b.Helper()
	src := sched.NewRandom(n, xrand.New(schedSeed))
	_, _, res, err := sim.Collect(src, sim.Config{AlgSeed: algSeed}, body)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkControlledSteps measures raw controlled-mode simulator
// throughput (the binding constraint on every experiment sweep): n
// processes each perform a fixed number of trivial shared-memory steps
// and the benchmark reports modeled steps and schedule slots per second.
// The skewed-tail case leaves one process running long after the rest
// finish, so most slots are uncharged no-ops — the case RoundRobin's
// peeking no-op skip exists for.
func BenchmarkControlledSteps(b *testing.B) {
	benchControlledSteps(b)
}

// BenchmarkControlledStepsMetrics is the same workload with a metrics
// registry installed, bounding the cost of full instrumentation (step
// counters, window-latency histograms, per-object op counts) on the
// simulator's hot path.
func BenchmarkControlledStepsMetrics(b *testing.B) {
	metrics.SetDefault(metrics.New())
	defer metrics.SetDefault(nil)
	benchControlledSteps(b)
}

func benchControlledSteps(b *testing.B) {
	cases := []struct {
		name  string
		n     int
		steps func(pid int) int
		mk    func(n int, seed uint64) sched.Source
	}{
		{
			name:  "round-robin/n=8",
			n:     8,
			steps: func(int) int { return 2048 },
			mk:    func(n int, _ uint64) sched.Source { return sched.NewRoundRobin(n) },
		},
		{
			name:  "round-robin/n=64",
			n:     64,
			steps: func(int) int { return 256 },
			mk:    func(n int, _ uint64) sched.Source { return sched.NewRoundRobin(n) },
		},
		{
			name:  "random/n=64",
			n:     64,
			steps: func(int) int { return 256 },
			mk:    func(n int, seed uint64) sched.Source { return sched.NewRandom(n, xrand.New(seed)) },
		},
		{
			name: "skewed-tail/n=64",
			n:    64,
			steps: func(pid int) int {
				if pid == 0 {
					return 4096
				}
				return 1
			},
			mk: func(n int, _ uint64) sched.Source { return sched.NewRoundRobin(n) },
		},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var totalSteps, totalSlots int64
			for i := 0; i < b.N; i++ {
				res, err := sim.RunControlled(tc.mk(tc.n, uint64(i)+1), func(p *sim.Proc) {
					for s := tc.steps(p.ID()); s > 0; s-- {
						p.Step()
					}
				}, sim.Config{AlgSeed: uint64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				totalSteps += res.TotalSteps
				totalSlots += res.Slots
			}
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(totalSteps)/secs, "steps/s")
				b.ReportMetric(float64(totalSlots)/secs, "slots/s")
			}
		})
	}
}

// flatBenchCountdown mirrors the controlled-steps workload bodies for
// the flat engine: a fixed number of trivial operations per process.
type flatBenchCountdown struct {
	steps func(pid int) int
	left  []int
}

func (m *flatBenchCountdown) Init(pid int, _ *xrand.Rand) { m.left[pid] = m.steps(pid) }

func (m *flatBenchCountdown) Step(pid int, _ *xrand.Rand) bool {
	m.left[pid]--
	return m.left[pid] == 0
}

// BenchmarkFlatHotPath measures the flat state-machine engine on the
// controlled-steps workloads (the coroutine numbers are the
// BenchmarkControlledSteps baselines) plus full consensus trials, with
// allocation reporting: the engine workloads must show 0 allocs/op in
// steady state — the property TestFlatRunnerSteadyStateZeroAllocs
// asserts — because that is what lets the Monte Carlo runner sustain
// millions of trials.
func BenchmarkFlatHotPath(b *testing.B) {
	cases := []struct {
		name  string
		n     int
		steps func(pid int) int
	}{
		{name: "round-robin/n=8", n: 8, steps: func(int) int { return 2048 }},
		{name: "round-robin/n=64", n: 64, steps: func(int) int { return 256 }},
		{
			name: "skewed-tail/n=64",
			n:    64,
			steps: func(pid int) int {
				if pid == 0 {
					return 4096
				}
				return 1
			},
		},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			m := &flatBenchCountdown{steps: tc.steps, left: make([]int, tc.n)}
			fr := sim.NewFlatRunner[*flatBenchCountdown]()
			src := sched.NewRoundRobin(tc.n)
			var res sim.Result
			var totalSteps, totalSlots int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fr.RunInto(src, m, sim.Config{AlgSeed: uint64(i) + 1}, &res); err != nil {
					b.Fatal(err)
				}
				totalSteps += res.TotalSteps
				totalSlots += res.Slots
			}
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(totalSteps)/secs, "steps/s")
				b.ReportMetric(float64(totalSlots)/secs, "slots/s")
			}
		})
	}
	b.Run("consensus/sifter+register/n=16", func(b *testing.B) {
		b.ReportAllocs()
		const n = 16
		m, err := consensus.NewFlat(n, consensus.FlatConfig{
			Conciliator: consensus.ConcSifter, AC: consensus.ACRegister,
		})
		if err != nil {
			b.Fatal(err)
		}
		fr := sim.NewFlatRunner[*consensus.FlatConsensus]()
		var res sim.Result
		var totalSteps int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src := sched.NewRandom(n, xrand.New(uint64(i)+1))
			m.Reset(nil)
			if err := fr.RunInto(src, m, sim.Config{AlgSeed: uint64(i) + 1}, &res); err != nil {
				b.Fatal(err)
			}
			totalSteps += res.TotalSteps
		}
		secs := b.Elapsed().Seconds()
		if secs > 0 {
			b.ReportMetric(float64(totalSteps)/secs, "steps/s")
			b.ReportMetric(float64(totalSteps)/float64(b.N), "steps/trial")
		}
	})
}

// BenchmarkConcurrentSteps measures real multi-core throughput of the
// concurrent substrate: n processes on real goroutines hammer a shared
// register, max register, and snapshot, and the benchmark reports
// modeled steps per second. It is the regression surface for the
// lock-free object representations; the nightly workflow runs it. One
// runner is reused across all b.N trials, so goroutine spawn cost is
// excluded just as the experiment sweeps exclude it.
func BenchmarkConcurrentSteps(b *testing.B) {
	const opsPerProc = 512
	for _, n := range []int{2, 8, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			r := sim.NewConcurrentRunner(n, 0)
			defer r.Close()
			var totalSteps int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reg := memory.NewRegister[int]()
				maxr := memory.NewMaxRegister[int]()
				snap := memory.NewSnapshot[int](n)
				res, err := r.Run(func(p *sim.Proc) {
					for k := 0; k < opsPerProc; k++ {
						reg.Write(p, p.ID())
						reg.Read(p)
						maxr.WriteMax(p, uint64(k), p.ID())
						snap.Update(p, p.ID(), k)
					}
				}, sim.Config{AlgSeed: uint64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				totalSteps += res.TotalSteps
			}
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(totalSteps)/secs, "steps/s")
			}
		})
	}
}

// BenchmarkSubstrateHotPath measures the exclusive substrate's
// per-operation cost inside a controlled run: each benchmark iteration is
// one shared-memory operation executed by a scheduled process, so ns/op
// is the end-to-end cost of a modeled step (coroutine handoff included)
// and allocs/op must be zero for every operation the protocols use in
// their inner loops. The allocating Scan is included for contrast.
func BenchmarkSubstrateHotPath(b *testing.B) {
	run := func(b *testing.B, setup func(p *sim.Proc) func()) {
		b.Helper()
		b.ReportAllocs()
		if _, err := sim.RunControlled(sched.NewRoundRobin(1), func(p *sim.Proc) {
			op := setup(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		}, sim.Config{AlgSeed: 1, MaxSlots: 1 << 40}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("register-write", func(b *testing.B) {
		run(b, func(p *sim.Proc) func() {
			r := memory.NewRegister[int]()
			return func() { r.Write(p, 7) }
		})
	})
	b.Run("register-read", func(b *testing.B) {
		run(b, func(p *sim.Proc) func() {
			r := memory.NewRegister[int]()
			r.Write(p, 7)
			return func() { r.Read(p) }
		})
	})
	b.Run("maxreg-writemax", func(b *testing.B) {
		run(b, func(p *sim.Proc) func() {
			m := memory.NewMaxRegister[int]()
			return func() { m.WriteMax(p, 5, 1) }
		})
	})
	b.Run("snapshot-scaninto/n=64", func(b *testing.B) {
		run(b, func(p *sim.Proc) func() {
			s := memory.NewSnapshot[int](64)
			s.Update(p, 0, 1)
			var buf []memory.Entry[int]
			return func() { buf = s.ScanInto(p, buf) }
		})
	})
	b.Run("snapshot-scan-alloc/n=64", func(b *testing.B) {
		run(b, func(p *sim.Proc) func() {
			s := memory.NewSnapshot[int](64)
			s.Update(p, 0, 1)
			return func() { s.Scan(p) }
		})
	})
}

// BenchmarkPriorityConciliator is E1/E2: one full Algorithm 1 execution
// per iteration (n processes, distinct inputs).
func BenchmarkPriorityConciliator(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inputs := benchInputs(n)
			var steps int64
			for i := 0; i < b.N; i++ {
				c := core.NewPriority[int](n, core.PriorityConfig{})
				res := benchRun(b, n, uint64(i)*2+1, uint64(i)*2+2, func(p *sim.Proc) int {
					return c.Conciliate(p, inputs[p.ID()])
				})
				steps += res.TotalSteps
			}
			b.ReportMetric(float64(steps)/float64(b.N)/float64(n), "steps/proc")
		})
	}
}

// BenchmarkPriorityEpsilon is E2: Algorithm 1 at tighter epsilons.
func BenchmarkPriorityEpsilon(b *testing.B) {
	const n = 64
	for _, eps := range []float64{0.5, 1.0 / 16, 1.0 / 256} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			inputs := benchInputs(n)
			agreed := 0
			for i := 0; i < b.N; i++ {
				c := core.NewPriority[int](n, core.PriorityConfig{Epsilon: eps})
				outs := make([]int, n)
				benchRun(b, n, uint64(i)*2+1, uint64(i)*2+2, func(p *sim.Proc) int {
					v := c.Conciliate(p, inputs[p.ID()])
					outs[p.ID()] = v
					return v
				})
				same := true
				for _, o := range outs {
					if o != outs[0] {
						same = false
					}
				}
				if same {
					agreed++
				}
			}
			b.ReportMetric(float64(agreed)/float64(b.N), "agree-rate")
		})
	}
}

// BenchmarkPrioritySteps is E3: individual step growth across n (log* n).
func BenchmarkPrioritySteps(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inputs := benchInputs(n)
			var maxSteps int64
			for i := 0; i < b.N; i++ {
				c := core.NewPriority[int](n, core.PriorityConfig{})
				res := benchRun(b, n, uint64(i)+1, uint64(i)+9, func(p *sim.Proc) int {
					return c.Conciliate(p, inputs[p.ID()])
				})
				maxSteps = res.MaxSteps()
			}
			b.ReportMetric(float64(maxSteps), "steps/proc")
		})
	}
}

// BenchmarkSifterDecay is E4: one full Algorithm 2 execution per
// iteration.
func BenchmarkSifterDecay(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inputs := benchInputs(n)
			var steps int64
			for i := 0; i < b.N; i++ {
				c := core.NewSifter[int](n, core.SifterConfig{})
				res := benchRun(b, n, uint64(i)*2+1, uint64(i)*2+2, func(p *sim.Proc) int {
					return c.Conciliate(p, inputs[p.ID()])
				})
				steps += res.TotalSteps
			}
			b.ReportMetric(float64(steps)/float64(b.N)/float64(n), "steps/proc")
		})
	}
}

// BenchmarkSifterEpsilon is E5: agreement rate of Algorithm 2.
func BenchmarkSifterEpsilon(b *testing.B) {
	const n = 64
	for _, eps := range []float64{0.5, 1.0 / 16} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			inputs := benchInputs(n)
			agreed := 0
			for i := 0; i < b.N; i++ {
				c := core.NewSifter[int](n, core.SifterConfig{Epsilon: eps})
				outs := make([]int, n)
				benchRun(b, n, uint64(i)*2+1, uint64(i)*2+2, func(p *sim.Proc) int {
					v := c.Conciliate(p, inputs[p.ID()])
					outs[p.ID()] = v
					return v
				})
				same := true
				for _, o := range outs {
					if o != outs[0] {
						same = false
					}
				}
				if same {
					agreed++
				}
			}
			b.ReportMetric(float64(agreed)/float64(b.N), "agree-rate")
		})
	}
}

// BenchmarkSifterSteps is E6: individual step growth across n (loglog n).
func BenchmarkSifterSteps(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inputs := benchInputs(n)
			var maxSteps int64
			for i := 0; i < b.N; i++ {
				c := core.NewSifter[int](n, core.SifterConfig{})
				res := benchRun(b, n, uint64(i)+3, uint64(i)+11, func(p *sim.Proc) int {
					return c.Conciliate(p, inputs[p.ID()])
				})
				maxSteps = res.MaxSteps()
			}
			b.ReportMetric(float64(maxSteps), "steps/proc")
		})
	}
}

// BenchmarkEmbedded is E7: Algorithm 3's O(n) total work vs the plain
// sifter.
func BenchmarkEmbedded(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inputs := benchInputs(n)
			var total int64
			for i := 0; i < b.N; i++ {
				c := core.NewEmbedded[int](n, core.EmbeddedConfig{})
				res := benchRun(b, n, uint64(i)*2+1, uint64(i)*2+2, func(p *sim.Proc) int {
					return c.Conciliate(p, inputs[p.ID()])
				})
				total += res.TotalSteps
			}
			b.ReportMetric(float64(total)/float64(b.N)/float64(n), "steps/proc")
		})
	}
}

// BenchmarkConsensus is E8: one full consensus execution per iteration,
// per construction.
func BenchmarkConsensus(b *testing.B) {
	protos := []struct {
		name string
		mk   func(n int) *consensus.Protocol[int]
	}{
		{name: "snapshot", mk: consensus.NewSnapshot[int]},
		{name: "register", mk: consensus.NewRegister[int]},
		{name: "linear", mk: consensus.NewLinear[int]},
		{name: "cil-baseline", mk: consensus.NewCILBaseline[int]},
	}
	for _, proto := range protos {
		for _, n := range []int{16, 128} {
			b.Run(fmt.Sprintf("%s/n=%d", proto.name, n), func(b *testing.B) {
				inputs := benchInputs(n)
				var steps int64
				for i := 0; i < b.N; i++ {
					c := proto.mk(n)
					res := benchRun(b, n, uint64(i)*2+1, uint64(i)*2+2, func(p *sim.Proc) int {
						return c.Propose(p, inputs[p.ID()])
					})
					steps += res.TotalSteps
				}
				b.ReportMetric(float64(steps)/float64(b.N)/float64(n), "steps/proc")
			})
		}
	}
}

// BenchmarkAdoptCommit is E9: adopt-commit cost vs value-universe size.
func BenchmarkAdoptCommit(b *testing.B) {
	const n = 16
	b.Run("snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ac := adoptcommit.NewSnapshotAC[int](n)
			benchRun(b, n, uint64(i)+1, uint64(i)+2, func(p *sim.Proc) int {
				_, v := ac.Propose(p, p.ID(), p.ID()%2)
				return v
			})
		}
		b.ReportMetric(4, "steps/propose")
	})
	for _, bits := range []int{1, 8, 20} {
		b.Run(fmt.Sprintf("register/bits=%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ac := adoptcommit.NewRegisterAC[int](adoptcommit.NewDigitCD(adoptcommit.IdentityEncoder(bits)))
				benchRun(b, n, uint64(i)+1, uint64(i)+2, func(p *sim.Proc) int {
					_, v := ac.Propose(p, p.ID(), p.ID()%2)
					return v
				})
			}
			b.ReportMetric(float64(2*bits+3), "steps/propose")
		})
	}
}

// BenchmarkSchedules is E10: Algorithm 2 under each schedule family.
func BenchmarkSchedules(b *testing.B) {
	const n = 64
	for _, kind := range sched.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			inputs := benchInputs(n)
			for i := 0; i < b.N; i++ {
				c := core.NewSifter[int](n, core.SifterConfig{})
				src := sched.New(kind, n, uint64(i)+7)
				if _, _, _, err := sim.Collect(src, sim.Config{AlgSeed: uint64(i) + 3}, func(p *sim.Proc) int {
					return c.Conciliate(p, inputs[p.ID()])
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblations is E11a: tuned vs constant write probabilities.
func BenchmarkAblations(b *testing.B) {
	const n = 1024
	for _, tc := range []struct {
		name  string
		probs []float64
	}{
		{name: "tuned"},
		{name: "constant-half", probs: []float64{0.5}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			inputs := benchInputs(n)
			rounds := 2*11 + 8 // enough rounds for both schedules at n=1024
			var lastSingle float64
			for i := 0; i < b.N; i++ {
				c := core.NewSifter[int](n, core.SifterConfig{
					Rounds:         rounds,
					Probs:          tc.probs,
					TrackSurvivors: true,
				})
				benchRun(b, n, uint64(i)*2+1, uint64(i)*2+2, func(p *sim.Proc) int {
					return c.Conciliate(p, inputs[p.ID()])
				})
				surv := c.SurvivorsPerRound()
				first := rounds
				for r, s := range surv {
					if s <= 1 {
						first = r + 1
						break
					}
				}
				lastSingle = float64(first)
			}
			b.ReportMetric(lastSingle, "rounds-to-1")
		})
	}
}

// BenchmarkTAS is E12: the sifting test-and-set.
func BenchmarkTAS(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ts := tas.New(n, tas.Config{})
				src := sched.NewRandom(n, xrand.New(uint64(i)+5))
				wins, _, _, err := sim.Collect(src, sim.Config{AlgSeed: uint64(i) + 1}, func(p *sim.Proc) bool {
					return ts.Acquire(p)
				})
				if err != nil {
					b.Fatal(err)
				}
				winners := 0
				for _, w := range wins {
					if w {
						winners++
					}
				}
				if winners != 1 {
					b.Fatalf("%d winners", winners)
				}
			}
		})
	}
}
