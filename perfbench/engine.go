package main

import (
	"fmt"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/consensus"
	"github.com/oblivious-consensus/conciliator/internal/sched"
	"github.com/oblivious-consensus/conciliator/internal/sim"
	"github.com/oblivious-consensus/conciliator/internal/stats"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// mcChunk splits a job into enough chunks to keep every worker busy.
const mcChunk = 8

// runEngineMC is the flat-engine Monte Carlo workload: jobs of a fixed
// trial count of n = 64 consensus under the random schedule, default
// flat config and worker count. A rep is one warm-up job (the set-up:
// worker and machine construction plus warm-up trials) and a fixed
// number of timed jobs; latency is one job's wall time.
func runEngineMC(sz sizes, seed uint64, budget time.Duration, tr *tracer) (*pass, error) {
	p := &pass{}
	var (
		steps, phases      = stats.NewIntHist(1024), stats.NewIntHist(64)
		r0Steps, r0Slots   int64
		flatNs, schedNs    int64
		flatSteps, schedSl int64
	)
	job := func(trials int64, jobSeed uint64) (*consensus.MCResult, time.Duration, error) {
		start := time.Now()
		res, err := consensus.RunMonteCarlo(consensus.MCConfig{
			N: sz.mcN, Trials: trials, ChunkSize: mcChunk, Sched: sched.KindRandom, Seed: jobSeed,
		})
		d := time.Since(start)
		if err != nil {
			return nil, 0, err
		}
		if tr != nil {
			tr.add(tr.mk("consensus.RunMonteCarlo", 0, 0, start, start.Add(d)))
		}
		p.attempted += res.Trials
		if res.Agreed != res.Trials {
			p.fail(res.Trials-res.Agreed, fmt.Sprintf("job seed %d: %d of %d trials agreed", jobSeed, res.Agreed, res.Trials))
		}
		return res, d, nil
	}
	err := repeat(p, budget, sz.minReps, func(r int) error {
		root := xrand.New(repSeed(seed, r))
		_, setup, err := job(sz.mcWarmTrials, root.SeedNamed(0))
		if err != nil {
			return err
		}
		var repSteps int64
		var busy time.Duration
		lat := make([]float64, 0, sz.mcJobs)
		for j := 1; j <= sz.mcJobs; j++ {
			res, d, err := job(sz.mcTrials, root.SeedNamed(uint64(j)))
			if err != nil {
				return err
			}
			busy += d
			repSteps += res.TotalSteps
			lat = append(lat, micros(d))
			if r == 0 {
				steps.Merge(res.Steps)
				phases.Merge(res.Phases)
				r0Steps += res.TotalSteps
				r0Slots += res.TotalSlots
			}
		}
		p.addRep(setup, float64(repSteps)/busy.Seconds(), lat, liveHeap())
		if tr == nil || r != 0 {
			return nil
		}
		flatNs, flatSteps, schedNs, schedSl, err = replayTrials(sz, root.SeedNamed(uint64(sz.mcJobs)+1), tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		p.layer = map[string]float64{
			"consensus.phases_mean": phases.Mean(),
			"consensus.steps_p99":   float64(steps.Quantile(0.99)),
			"sim.noop_frac":         1 - float64(r0Steps)/float64(r0Slots),
			"sim.flat_ns_per_step":  float64(flatNs) / float64(flatSteps),
			"sched.ns_per_slot":     float64(schedNs) / float64(schedSl),
		}
	}
	return p, nil
}

// replayTrials runs trials of the engine-mc protocol one by one through a
// reused FlatRunner, timing each RunInto, then times the schedule source
// alone: sched.New plus one Next per slot the trial consumed.
func replayTrials(sz sizes, seed uint64, tr *tracer) (flatNs, steps, schedNs, slots int64, err error) {
	m, err := consensus.NewFlat(sz.mcN, consensus.FlatConfig{})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	fr := sim.NewFlatRunner[*consensus.FlatConsensus]()
	var res sim.Result
	rng := xrand.New(seed)
	for t := 0; t < sz.mcReplayTrials; t++ {
		algSeed, schedSeed := rng.Uint64(), rng.Uint64()
		m.Reset(nil)
		start := time.Now()
		if err := fr.RunInto(sched.New(sched.KindRandom, sz.mcN, schedSeed), m, sim.Config{AlgSeed: algSeed}, &res); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("replay trial %d: %w", t, err)
		}
		mid := time.Now()
		src := sched.New(sched.KindRandom, sz.mcN, schedSeed)
		for k := int64(0); k < res.Slots; k++ {
			src.Next()
		}
		end := time.Now()
		tr.add(tr.mk("sim.FlatRunner.RunInto", 0, 0, start, mid), tr.mk("sched.Source.Next", 0, 0, mid, end))
		flatNs += mid.Sub(start).Nanoseconds()
		schedNs += end.Sub(mid).Nanoseconds()
		steps += res.TotalSteps
		slots += res.Slots
	}
	return flatNs, steps, schedNs, slots, nil
}
