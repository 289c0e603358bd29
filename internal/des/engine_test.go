package des

import (
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// refQueue is the oracle the event queue is checked against: a slice
// kept sorted by (at, seq), each push inserted at its sorted position.
type refQueue struct{ evs []event }

func (r *refQueue) push(e event) {
	i := sort.Search(len(r.evs), func(i int) bool { return evLess(&e, &r.evs[i]) })
	r.evs = slices.Insert(r.evs, i, e)
}

func (r *refQueue) pop() (event, bool) {
	if len(r.evs) == 0 {
		return event{}, false
	}
	e := r.evs[0]
	r.evs = r.evs[1:]
	return e, true
}

// defaultGeometry returns the tick width and wheel span, in ns, of a
// zero-value queue.
func defaultGeometry() (tick, horizon int64) {
	var q eventQueue
	q.setTick(defaultTickMean)
	tick = int64(1) << q.shift
	return tick, wheelSize * tick
}

// queueChecker drives an eventQueue and a refQueue in lockstep. Push
// delays are relative to now, the time of the last popped event, as in
// the engine.
type queueChecker struct {
	t   testing.TB
	q   *eventQueue
	ref refQueue
	now int64
	id  int32
}

func (c *queueChecker) push(delay int64) {
	c.id++
	at := c.now + delay
	c.q.push(at, c.id, evDeliver, message{val: c.id})
	c.ref.push(event{at: at, seq: c.q.seq, to: c.id})
}

func (c *queueChecker) pop() {
	c.t.Helper()
	got, gok := c.q.pop()
	want, wok := c.ref.pop()
	if gok != wok || got.at != want.at || got.seq != want.seq || got.to != want.to || got.msg.val != want.to {
		c.t.Fatalf("pop = (at %d seq %d to %d, %v), want (at %d seq %d to %d, %v)",
			got.at, got.seq, got.to, gok, want.at, want.seq, want.to, wok)
	}
	if gok {
		c.now = got.at
	}
	if c.q.len() != len(c.ref.evs) {
		c.t.Fatalf("len = %d, want %d", c.q.len(), len(c.ref.evs))
	}
}

func (c *queueChecker) drain() {
	c.t.Helper()
	for len(c.ref.evs) > 0 {
		c.pop()
	}
	c.pop() // both empty
}

// TestEventQueueEdges pins each boundary of the near/wheel/far layout
// against the sorting oracle, and checks that the case reached the
// region it is named for.
func TestEventQueueEdges(t *testing.T) {
	tick, horizon := defaultGeometry()

	cases := []struct {
		name string
		run  func(c *queueChecker)
	}{
		{"push into current tick while near is non-empty", func(c *queueChecker) {
			for i := 0; i < 4; i++ {
				c.push(3 * tick / 2)
			}
			c.pop() // advances into tick 1, leaving three events in near
			if len(c.q.order) != 3 {
				c.t.Fatalf("near holds %d events, want 3", len(c.q.order))
			}
			c.push(0)
			c.push(tick/2 - 1) // still tick 1, later than the queued ones
			c.push(tick)       // next tick: the wheel
			if len(c.q.order) != 5 || c.q.wheelN != 1 {
				c.t.Fatalf("near %d wheel %d, want 5 and 1", len(c.q.order), c.q.wheelN)
			}
		}},
		{"one tick either side of the wheel horizon", func(c *queueChecker) {
			c.push(horizon - tick) // last wheel tick
			c.push(horizon)        // first far tick
			c.push(horizon - 1)
			c.push(horizon + tick - 1)
			if c.q.wheelN != 2 || len(c.q.far) != 2 {
				c.t.Fatalf("wheel %d far %d, want 2 and 2", c.q.wheelN, len(c.q.far))
			}
		}},
		{"far event on the same tick as a bucket", func(c *queueChecker) {
			c.push(horizon + tick/2) // far, tick wheelSize
			c.push(tick)
			c.pop() // cur = tick 1: tick wheelSize is now inside the wheel span
			// now = tick, so these land at ticks wheelSize-1, wheelSize and
			// wheelSize: the last two share the far event's tick, one
			// earlier than it and one at the same nanosecond, later seq.
			c.push(horizon - 2*tick)
			c.push(horizon - tick + tick/4)
			c.push(horizon - tick + tick/2)
			if c.q.wheelN != 3 || len(c.q.far) != 1 {
				c.t.Fatalf("wheel %d far %d, want 3 and 1", c.q.wheelN, len(c.q.far))
			}
		}},
		{"empty-wheel jump to a far event seconds ahead", func(c *queueChecker) {
			c.push(10)
			c.push(3_000_000_000) // a chaos crash 3s out
			c.push(3_000_000_000 + horizon/2)
			c.pop()
			if c.q.wheelN != 0 || len(c.q.far) != 2 {
				c.t.Fatalf("wheel %d far %d, want 0 and 2", c.q.wheelN, len(c.q.far))
			}
			c.pop() // jumps cur to the crash's tick
			if c.q.cur != 3_000_000_000>>c.q.shift {
				c.t.Fatalf("cur = %d, want tick of 3s", c.q.cur)
			}
			c.push(tick) // lands in the wheel relative to the new tick
			c.push(0)
		}},
		{"bucket spanning several chunks", func(c *queueChecker) {
			// Descending offsets inside one tick: the bucket's arrival
			// order is the reverse of its pop order.
			for i := 3 * chunkSize; i >= 0; i-- {
				c.push(tick + int64(i))
			}
			if c.q.wheelN != 3*chunkSize+1 {
				c.t.Fatalf("wheel %d, want %d", c.q.wheelN, 3*chunkSize+1)
			}
		}},
		{"zero-value queue", func(c *queueChecker) {
			c.pop() // empty before any push
			c.push(5)
			c.push(5)
			c.push(1)
			if int64(1)<<c.q.shift != tick {
				c.t.Fatalf("zero-value tick = %d ns, want the 1ms default %d", int64(1)<<c.q.shift, tick)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &queueChecker{t: t, q: &eventQueue{}}
			tc.run(c)
			c.drain()
		})
	}
}

// TestEventQueueTickSizing pins the wheel to span at least
// wheelSpanMeans mean latencies with power-of-two ticks no wider than
// needed.
func TestEventQueueTickSizing(t *testing.T) {
	for _, mean := range []int64{1, 1000, 250_000, 1_000_000, 7_777_777, 1_000_000_000} {
		var q eventQueue
		q.setTick(mean)
		tick := int64(1) << q.shift
		if wheelSize*tick < wheelSpanMeans*mean {
			t.Errorf("mean %d: wheel spans %d ns, want >= %d", mean, wheelSize*tick, wheelSpanMeans*mean)
		}
		if q.shift > 0 && wheelSize*tick/2 >= wheelSpanMeans*mean {
			t.Errorf("mean %d: tick %d ns is wider than needed", mean, tick)
		}
	}
}

// FuzzEventQueue checks random push/pop interleavings pop by pop against
// the sorting oracle. Each op byte is a pop or a push whose delay class
// spans every region of the queue: zero, under one tick, exp(1ms), within
// a tick of the wheel horizon, and far beyond it.
func FuzzEventQueue(f *testing.F) {
	f.Add(uint64(1), []byte{1, 2, 3, 4, 5, 0, 0, 0, 0, 0})
	f.Add(uint64(2), []byte{5, 5, 4, 4, 0, 3, 0, 2, 1, 0, 0, 3, 3, 3, 0})
	f.Add(uint64(3), []byte{3, 3, 3, 3, 3, 3, 0, 3, 0, 4, 0, 5, 0, 0, 0, 0})
	tick, horizon := defaultGeometry()
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		// Bound the trace so the quadratic oracle stays fast.
		if len(ops) > 2000 {
			ops = ops[:2000]
		}
		rng := xrand.New(seed)
		c := &queueChecker{t: t, q: &eventQueue{}}
		for _, op := range ops {
			switch op % 6 {
			case 0:
				c.pop()
			case 1:
				c.push(0)
			case 2:
				c.push(int64(rng.Uint64n(uint64(tick))))
			case 3:
				c.push(int64(-1e6 * math.Log(1-rng.Float64())))
			case 4:
				c.push(horizon - tick + int64(rng.Uint64n(uint64(2*tick))))
			case 5:
				c.push(horizon * int64(2+rng.Intn(1000)))
			}
		}
		c.drain()
	})
}

// holdQueue fills a queue to the des-scale steady state — ~42k events,
// three quarters of them retransmission timers 8ms out and the rest
// exp(1ms) deliveries — and returns it with a delay source for the
// same mix.
func holdQueue() (*eventQueue, func() int64) {
	rng := xrand.New(1)
	delay := func() int64 {
		if rng.Intn(4) != 0 {
			return 8_000_000
		}
		return int64(-1e6 * math.Log(1-rng.Float64()))
	}
	q := &eventQueue{}
	q.setTick(defaultTickMean)
	for i := 0; i < 42_000; i++ {
		q.push(delay(), int32(i), evDeliver, message{})
	}
	return q, delay
}

// TestEventQueueSteadyStateAllocs pins the steady state to zero
// allocations: once warm, a pop and a push reuse slab nodes and heap
// capacity.
func TestEventQueueSteadyStateAllocs(t *testing.T) {
	q, delay := holdQueue()
	cycle := func() {
		ev, _ := q.pop()
		q.push(ev.at+delay(), ev.to, evDeliver, ev.msg)
	}
	for i := 0; i < 200_000; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(10_000, cycle); allocs != 0 {
		t.Errorf("push+pop on a warm queue allocates %v times per cycle, want 0", allocs)
	}
}

// BenchmarkEventQueue is the classic hold model at the des-scale queue
// size and delay mix: each op pops the earliest event and schedules one
// replacement.
func BenchmarkEventQueue(b *testing.B) {
	q, delay := holdQueue()
	b.ReportAllocs()
	for b.Loop() {
		ev, _ := q.pop()
		q.push(ev.at+delay(), ev.to, evDeliver, ev.msg)
	}
}
