package main

import (
	"math/bits"
	"runtime"
	"sync"
	"time"
)

// refNominal is a typical lower-quartile refLoop time over a run on the
// host the benchmark was tuned on (2 vCPUs of a 2.1 GHz Xeon VM).
const refNominal = 12 * time.Millisecond

var refSink [maxProcs]uint64

// refLoop runs a fixed amount of plain integer and cache work, unrelated
// to the program, on every P at once, and returns the wall time until the
// slowest finished. Timed after every rep, it reads how fast the host
// runs at the time.
func refLoop() time.Duration {
	procs := min(runtime.GOMAXPROCS(0), maxProcs)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]uint64, 1<<16)
			x := uint64(88172645463325252) + uint64(g)
			for i := 0; i < 4_000_000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				buf[x&(1<<16-1)] += uint64(bits.OnesCount64(x))
			}
			refSink[g] = buf[x&(1<<16-1)]
		}(g)
	}
	wg.Wait()
	return time.Since(start)
}

// hostSpeed is refNominal over the pass's lower-quartile refLoop time:
// 1 on the tuning host at its fastest, below 1 while other tenants slow
// the host down.
func (p *pass) hostSpeed() float64 {
	return refNominal.Seconds() / quantile(p.ref, 0.25)
}

// endToEnd is rawEndToEnd, for a calibrated workload at the tuning
// host's speed: times are multiplied and rates divided by hostSpeed. On a
// shared host the speed of the whole machine drifts by ±20% over minutes,
// which no statistic over one run's reps can remove; refLoop drifts with
// it, so the ratio stays put.
func (p *pass) endToEnd() map[string]float64 {
	e := p.rawEndToEnd()
	if !p.calibrated {
		return e
	}
	s := p.hostSpeed()
	for _, name := range []string{"setup_s", "p50_us", "p99_us"} {
		e[name] *= s
	}
	e["work_per_s"] /= s
	return e
}
