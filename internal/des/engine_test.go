package des

import (
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/oblivious-consensus/conciliator/internal/xrand"
)

// refEvent is a pushed event as the oracle sees it: its time and its
// destination, which the checker numbers in push order.
type refEvent struct {
	at int64
	to int32
}

// refQueue is the oracle the event queue is checked against: a slice
// kept sorted by (at, push order), each push inserted at its sorted
// position.
type refQueue struct{ evs []refEvent }

func (r *refQueue) push(e refEvent) {
	i := sort.Search(len(r.evs), func(i int) bool { return e.at < r.evs[i].at })
	r.evs = slices.Insert(r.evs, i, e)
}

func (r *refQueue) pop() (refEvent, bool) {
	if len(r.evs) == 0 {
		return refEvent{}, false
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
// the engine. Each push goes to a fresh destination id, also carried in
// the message, so a popped event names its place in push order.
type queueChecker struct {
	t   testing.TB
	q   *eventQueue
	ref refQueue
	now int64
	id  int32
}

func (c *queueChecker) push(delay int64) { c.pushAt(c.now + delay) }

// pushAt pushes at an absolute time, which must not be earlier than now.
func (c *queueChecker) pushAt(at int64) {
	c.id++
	c.q.push(at, c.id, evDeliver, message{val: c.id})
	c.ref.push(refEvent{at: at, to: c.id})
}

func (c *queueChecker) pop() {
	c.t.Helper()
	ev := c.q.pop()
	want, wok := c.ref.pop()
	var got refEvent
	if ev != nil {
		if ev.msg.val != ev.to {
			c.t.Fatalf("popped event to %d carries message %d", ev.to, ev.msg.val)
		}
		got = refEvent{at: ev.at, to: ev.to}
	}
	if (ev != nil) != wok || got != want {
		c.t.Fatalf("pop = (at %d to %d, %v), want (at %d to %d, %v)",
			got.at, got.to, ev != nil, want.at, want.to, wok)
	}
	if wok {
		c.now = got.at
	}
	if c.q.len() != len(c.ref.evs) {
		c.t.Fatalf("len = %d, want %d", c.q.len(), len(c.ref.evs))
	}
}

// nearLen is how many events near still holds.
func (c *queueChecker) nearLen() int { return len(c.q.near) - c.q.head }

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
	slotW := tick >> slotBits // ns per sub-tick slot

	// fillTick pushes m events into tick tk of a wk ns wide tick, at
	// offsets that run backwards through it with every third event tying
	// with the one before, then pops the first and checks whether advance
	// ran the counting pass, which leaves the end of near in the last
	// slot's cursor. near must be empty.
	fillTick := func(c *queueChecker, tk, wk int64, m int, counted bool) {
		var at int64
		for i := 0; i < m; i++ {
			if i%3 != 2 {
				at = tk*wk + wk - 1 - int64(i)*wk/int64(m)
			}
			c.pushAt(at)
		}
		c.q.slots = [1 << slotBits]int32{}
		c.pop()
		if ran := c.q.slots[len(c.q.slots)-1] == int32(m); ran != counted {
			c.t.Fatalf("tick of %d events: counting pass ran = %v, want %v", m, ran, counted)
		}
	}

	cases := []struct {
		name string
		run  func(c *queueChecker)
	}{
		{"tick of exactly denseTick events: insertion pass only", func(c *queueChecker) {
			fillTick(c, 1, tick, denseTick, false)
		}},
		{"tick of denseTick+1 events: counting pass", func(c *queueChecker) {
			fillTick(c, 1, tick, denseTick+1, true)
		}},
		{"dense tick with events on sub-slot boundaries", func(c *queueChecker) {
			// From the last slot down, each slot's first ns twice and the
			// ns before it, so every boundary has a neighbour on each side.
			c.pushAt(2*tick - 1)
			for s := int64(1)<<slotBits - 1; s > 0; s-- {
				c.pushAt(tick + s*slotW)
				c.pushAt(tick + s*slotW - 1)
				c.pushAt(tick + s*slotW)
			}
			c.pushAt(tick)
			c.pop()
			if c.nearLen() != 3<<slotBits-2 {
				c.t.Fatalf("near holds %d events, want %d", c.nearLen(), 3<<slotBits-2)
			}
		}},
		{"1 ns ticks: fewer ns than slots", func(c *queueChecker) {
			c.q.setTick(1)
			if c.q.shift != 0 {
				c.t.Fatalf("shift = %d, want 0", c.q.shift)
			}
			fillTick(c, 5, 1, denseTick+7, true) // every event ties
			c.drain()
			fillTick(c, 9, 1, denseTick, false)
		}},
		{"8 ns ticks: fewer ns than slots", func(c *queueChecker) {
			c.q.setTick(8 * wheelSize / wheelSpanMeans)
			if c.q.shift != 3 {
				c.t.Fatalf("shift = %d, want 3", c.q.shift)
			}
			fillTick(c, 2, 8, 2*denseTick, true)
		}},
		{"push into the current tick while a dense near is half drained", func(c *queueChecker) {
			fillTick(c, 1, tick, 2*denseTick, true)
			for c.nearLen() > denseTick {
				c.pop()
			}
			c.push(0)                           // ties now: after the queued events of now
			c.pushAt(c.ref.evs[denseTick/2].at) // ties a queued event mid-near
			c.pushAt(2*tick - 1)                // the tick's last ns
			c.pushAt((c.now + 2*tick - 1) / 2)  // between them
			if c.nearLen() != denseTick+4 {
				c.t.Fatalf("near holds %d events, want %d", c.nearLen(), denseTick+4)
			}
		}},
		{"push into current tick while near is non-empty", func(c *queueChecker) {
			for i := 0; i < 4; i++ {
				c.push(3 * tick / 2)
			}
			c.pop() // advances into tick 1, leaving three events in near
			if c.nearLen() != 3 {
				c.t.Fatalf("near holds %d events, want 3", c.nearLen())
			}
			c.push(0)
			c.push(tick/2 - 1) // still tick 1, later than the queued ones
			c.push(tick)       // next tick: the wheel
			if c.nearLen() != 5 || c.q.wheelN != 1 {
				c.t.Fatalf("near %d wheel %d, want 5 and 1", c.nearLen(), c.q.wheelN)
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
		{"ties on one time across far, a multi-chunk bucket and near", func(c *queueChecker) {
			at := horizon + tick/2
			c.push(at) // far, tick wheelSize
			c.push(tick)
			c.pop() // cur = tick 1: tick wheelSize is now inside the wheel span
			for i := 0; i < 2*chunkSize+1; i++ {
				c.pushAt(at)
			}
			c.pushAt(at - 1) // same tick, one ns earlier
			if c.q.wheelN != 2*chunkSize+2 || len(c.q.far) != 1 {
				c.t.Fatalf("wheel %d far %d, want %d and 1", c.q.wheelN, len(c.q.far), 2*chunkSize+2)
			}
			c.pop() // advances into the tick and pops at-1
			c.pushAt(at)
			c.pushAt(at)
			if c.nearLen() != 2*chunkSize+4 {
				c.t.Fatalf("near holds %d events, want %d", c.nearLen(), 2*chunkSize+4)
			}
		}},
		{"dense tick: ties across far and a bucket", func(c *queueChecker) {
			at := horizon + tick/2
			c.push(at) // far, tick wheelSize
			c.push(at)
			c.push(tick)
			c.pop() // cur = tick 1: tick wheelSize is now inside the wheel span
			for i := 0; i < denseTick; i++ {
				c.pushAt(at - int64(i%2)) // ties with far's events and one ns before
			}
			if c.q.wheelN != denseTick || len(c.q.far) != 2 {
				c.t.Fatalf("wheel %d far %d, want %d and 2", c.q.wheelN, len(c.q.far), denseTick)
			}
			c.q.slots = [1 << slotBits]int32{}
			c.pop() // advances into the tick through the counting pass
			if c.q.slots[len(c.q.slots)-1] != denseTick+2 {
				c.t.Fatalf("the %d events of the tick skipped the counting pass", denseTick+2)
			}
		}},
		{"wide tick: offsets past 32 bits", func(c *queueChecker) {
			c.q.setTick(3_600_000_000_000) // 1h mean: 2^34 ns ticks
			if c.q.shift <= 32 {
				c.t.Fatalf("shift = %d, want a tick wider than 2^32 ns", c.q.shift)
			}
			wide := int64(1) << c.q.shift
			c.push(wide - 1) // last ns of the current tick
			c.push(0)
			c.push(wide - 1)
			c.push(2*wide - 1) // last ns of the next tick
			c.push(wide)
			c.push(wheelSize*wide + wide - 1)
			if c.nearLen() != 3 || c.q.wheelN != 2 || len(c.q.far) != 1 {
				c.t.Fatalf("near %d wheel %d far %d, want 3, 2 and 1", c.nearLen(), c.q.wheelN, len(c.q.far))
			}
			c.pop()
			c.pop()
			c.push(0) // the current tick again, at its last ns
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
// needed, for every mean up to the largest a Duration holds.
func TestEventQueueTickSizing(t *testing.T) {
	for _, mean := range []int64{1, 1000, 250_000, 1_000_000, 7_777_777, 1_000_000_000, 3_600_000_000_000, math.MaxInt64} {
		var q eventQueue
		q.setTick(mean)
		// In uint64, tick*ticksPerMean fits for every shift setTick picks;
		// the wheel spans wheelSpanMeans means iff it is at least mean.
		const ticksPerMean = wheelSize / wheelSpanMeans
		tick := uint64(1) << q.shift
		if tick*ticksPerMean < uint64(mean) {
			t.Errorf("mean %d: wheel of %d ns ticks spans less than %d means", mean, tick, wheelSpanMeans)
		}
		if q.shift > 0 && tick/2*ticksPerMean >= uint64(mean) {
			t.Errorf("mean %d: tick %d ns is wider than needed", mean, tick)
		}
	}
}

// TestEventQueuePushBeforeLastPopPanics pins the queue's precondition:
// a push earlier than the last pop would sort before events already
// handled, so it panics instead.
func TestEventQueuePushBeforeLastPopPanics(t *testing.T) {
	var q eventQueue
	q.push(100, 0, evDeliver, message{})
	q.push(200, 0, evDeliver, message{})
	q.pop()
	q.push(100, 0, evDeliver, message{}) // the last pop's own time is fine
	defer func() {
		if recover() == nil {
			t.Fatal("push at 99 after a pop at 100 did not panic")
		}
	}()
	q.push(99, 0, evDeliver, message{})
}

// FuzzEventQueue checks random push/pop interleavings pop by pop against
// the sorting oracle. geom picks the tick geometry: 0 is the 1ms default,
// anything else a mean latency from 1ns to 2^43 ns, whose ticks are
// wider than 2^32 ns. Each op byte is a pop or a push whose delay class
// spans every region of the queue — zero, under one tick, exp(mean),
// within a tick of the wheel horizon, and far beyond it — or a push that
// ties exactly on the time of a queued event, alone or in a burst that
// spans several chunks, so ties meet across far, the wheel and near; or
// a dense tick, a burst of more than denseTick pushes into one tick.
func FuzzEventQueue(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte{1, 2, 3, 4, 5, 0, 0, 0, 0, 0})
	f.Add(uint64(2), uint8(0), []byte{5, 5, 4, 4, 0, 3, 0, 2, 1, 0, 0, 3, 3, 3, 0})
	f.Add(uint64(3), uint8(0), []byte{3, 3, 3, 3, 3, 3, 0, 3, 0, 4, 0, 5, 0, 0, 0, 0})
	f.Add(uint64(4), uint8(0), []byte{5, 4, 6, 7, 0, 6, 7, 0, 6, 3, 7, 0, 6, 0, 7, 6, 0, 0})
	f.Add(uint64(5), uint8(1), []byte{2, 3, 7, 4, 6, 0, 5, 7, 0, 6, 0, 1, 6, 0})
	f.Add(uint64(6), uint8(41), []byte{4, 3, 5, 7, 6, 0, 2, 6, 0, 7, 4, 0, 6, 0, 0})
	f.Add(uint64(7), uint8(0), []byte{8, 0, 8, 8, 0, 6, 0, 3, 8, 0, 7, 0, 0, 8, 0, 0})
	f.Add(uint64(8), uint8(3), []byte{8, 8, 0, 0, 8, 4, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, geom uint8, ops []byte) {
		// Bound the trace so the quadratic oracle stays fast.
		if len(ops) > 2000 {
			ops = ops[:2000]
		}
		rng := xrand.New(seed)
		c := &queueChecker{t: t, q: &eventQueue{}}
		mean := int64(defaultTickMean)
		if geom != 0 {
			m := int64(1) << (geom % 42) // up to 2^42 ns
			mean = m + int64(rng.Uint64n(uint64(m)))
		}
		c.q.setTick(mean)
		tick := int64(1) << c.q.shift
		horizon := wheelSize * tick
		// tieAt is the time of a random queued event, or now if none is.
		tieAt := func() int64 {
			if len(c.ref.evs) == 0 {
				return c.now
			}
			return c.ref.evs[rng.Intn(len(c.ref.evs))].at
		}
		for _, op := range ops {
			switch op % 9 {
			case 0:
				c.pop()
			case 1:
				c.push(0)
			case 2:
				c.push(int64(rng.Uint64n(uint64(tick))))
			case 3:
				c.push(int64(-float64(mean) * math.Log(1-rng.Float64())))
			case 4:
				c.push(horizon - tick + int64(rng.Uint64n(uint64(2*tick))))
			case 5:
				// Capped so 2000 pushes at the widest geometry cannot
				// overflow virtual time.
				c.push(min(horizon*int64(2+rng.Intn(1000)), 1<<50))
			case 6:
				c.pushAt(tieAt())
			case 7:
				at := tieAt()
				for k := chunkSize + 1 + rng.Intn(2*chunkSize); k > 0; k-- {
					c.pushAt(at)
				}
			case 8:
				// 33-300 pushes at random offsets in one tick: now's, one
				// of the next two, or the first beyond the wheel; a
				// quarter of them tie with an earlier push of the burst.
				k := 33 + rng.Intn(268)
				if len(c.ref.evs)+k > 4000 {
					c.pop() // keeps the oracle's queue small
					break
				}
				tk := c.now>>c.q.shift + []int64{0, 1, 2, wheelSize}[rng.Intn(4)]
				lo, end := max(tk<<c.q.shift, c.now), (tk+1)<<c.q.shift
				var burst []int64
				for ; k > 0; k-- {
					at := lo + int64(rng.Uint64n(uint64(end-lo)))
					if len(burst) > 0 && rng.Intn(4) == 0 {
						at = burst[rng.Intn(len(burst))]
					}
					burst = append(burst, at)
					c.pushAt(at)
				}
			}
		}
		c.drain()
	})
}

// holdQueue fills a queue with size events in the des-scale delay mix —
// three quarters retransmission timers 8ms out and the rest exp(1ms)
// deliveries — and returns it with a delay source for the same mix.
// Each event's delay runs from 0, or with spread from a start spread
// evenly over the first 8ms, which keeps the timers from clumping on
// one nanosecond. desScaleHold events is the des-scale steady state.
func holdQueue(size int, spread bool) (*eventQueue, func() int64) {
	rng := xrand.New(1)
	delay := func() int64 {
		if rng.Intn(4) != 0 {
			return 8_000_000
		}
		return int64(-1e6 * math.Log(1-rng.Float64()))
	}
	q := &eventQueue{}
	q.setTick(defaultTickMean)
	for i := 0; i < size; i++ {
		var start int64
		if spread {
			start = int64(i) * 8_000_000 / int64(size)
		}
		q.push(start+delay(), int32(i), evDeliver, message{})
	}
	return q, delay
}

const desScaleHold = 42_000

// TestEventQueueSteadyStateAllocs pins the steady state to zero
// allocations: once warm, a pop and a push reuse slab nodes, heap
// capacity, near and the counting pass's scratch. It runs the des-scale
// hold model and one four times its size with spread start times, whose
// measured ticks must nearly all take the counting pass.
func TestEventQueueSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		size  int
		dense bool // spread start times; checks that ticks are dense
	}{
		{"des-scale", desScaleHold, false},
		{"dense ticks", 4 * desScaleHold, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, delay := holdQueue(tc.size, tc.dense)
			var advances, dense int
			cycle := func() {
				ev := q.pop()
				if q.head == 1 {
					advances++
					if len(q.near) > denseTick {
						dense++
					}
				}
				q.push(ev.at+delay(), ev.to, evDeliver, ev.msg)
			}
			for i := 0; i < 200_000; i++ {
				cycle()
			}
			advances, dense = 0, 0
			if allocs := testing.AllocsPerRun(10_000, cycle); allocs != 0 {
				t.Errorf("push+pop on a warm queue allocates %v times per cycle, want 0", allocs)
			}
			if tc.dense && dense < advances*99/100 {
				t.Errorf("%d of the %d measured ticks took the counting pass, want at least 99%%", dense, advances)
			}
		})
	}
}

// BenchmarkEventQueue is the classic hold model at the des-scale queue
// size and delay mix: each op pops the earliest event and schedules one
// replacement.
func BenchmarkEventQueue(b *testing.B) {
	q, delay := holdQueue(desScaleHold, false)
	b.ReportAllocs()
	for b.Loop() {
		ev := q.pop()
		q.push(ev.at+delay(), ev.to, evDeliver, ev.msg)
	}
}
