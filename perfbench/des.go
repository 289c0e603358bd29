package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/oblivious-consensus/conciliator/internal/des"
	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// desLoss is a small per-message loss rate: enough that every run
// retransmits and the server's dedup cache absorbs duplicates.
const desLoss = 0.01

// desProtocols are the protocols a des-scale rep runs, one after the other.
var desProtocols = []string{des.ProtoSifter, des.ProtoPriorityMax}

// runDESScale is the message-passing workload: a rep runs des.Run at
// n = 10k once per protocol under exponential 1 ms latency and desLoss;
// latency is one des.Run. The set-up is the same pair at a tenth of the
// size.
func runDESScale(sz sizes, seed uint64, budget time.Duration, tr *tracer) (*pass, error) {
	p := &pass{}
	var r0 []des.Result
	var nsPerEvent []float64
	pair := func(n int, rng *xrand.Rand) (res []des.Result, lat []float64, err error) {
		for _, proto := range desProtocols {
			start := time.Now()
			x, err := des.Run(des.Config{
				N: n, Protocol: proto, Seed: rng.Uint64(),
				Net: des.NetConfig{Latency: des.LatencyDist{Kind: des.LatExp, Mean: time.Millisecond}, Loss: desLoss},
			})
			if err != nil {
				return nil, nil, fmt.Errorf("%s n=%d: %w", proto, n, err)
			}
			lat = append(lat, micros(time.Since(start)))
			if tr != nil {
				tr.record("des.Run", 0, 0, start)
			}
			p.attempted++
			if !x.AllDecided || len(x.Violations) != 0 || x.GaveUp != 0 {
				p.fail(1, fmt.Sprintf("%s n=%d: all decided %v, %d violations, %d gave up",
					proto, n, x.AllDecided, len(x.Violations), x.GaveUp))
			}
			res = append(res, x)
		}
		return res, lat, nil
	}
	err := repeat(p, budget, sz.minReps, func(r int) error {
		rng := xrand.New(repSeed(seed, r))
		t0 := time.Now()
		if _, _, err := pair(sz.desWarmN, rng); err != nil {
			return err
		}
		setup := time.Since(t0)
		start := time.Now()
		res, lat, err := pair(sz.desN, rng)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		var events int64
		for _, x := range res {
			events += x.Events
		}
		nsPerEvent = append(nsPerEvent, float64(wall.Nanoseconds())/float64(events))
		p.addRep(setup, float64(events)/wall.Seconds(), lat, liveHeap())
		runtime.KeepAlive(res)
		if r == 0 {
			r0 = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		var sum des.Result
		for _, x := range r0 {
			sum.Events += x.Events
			sum.OpsApplied += x.OpsApplied
			sum.Retransmits += x.Retransmits
			sum.DupDrops += x.DupDrops
			sum.VirtualTime += x.VirtualTime
		}
		p.layer = map[string]float64{
			"des.ns_per_event":  median(nsPerEvent),
			"des.events_per_op": float64(sum.Events) / float64(sum.OpsApplied),
			"des.retransmits":   float64(sum.Retransmits),
			"des.dup_drops":     float64(sum.DupDrops),
			"des.virtual_ms":    float64(sum.VirtualTime.Nanoseconds()) / 1e6,
		}
	}
	return p, nil
}
