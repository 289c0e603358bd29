package des

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// The event queue is a timing wheel (Varghese & Lauck's hashed wheel,
// close kin of Brown's calendar queue) rather than one binary heap: every
// delay the engine schedules lies in a narrow band — message latency
// around its mean, retransmission timers a few means ahead — so bucketing
// events by virtual-time tick replaces a ~16-level sift through a heap of
// tens of thousands of events with an append to a bucket and a sort of
// the few dozen events that share a tick.
//
// Virtual time is cut into ticks of 1<<shift ns. Every queued event sits
// in exactly one of three places:
//
//   - near: the events of the current tick (or earlier), with an index
//     sorted by descending (at, seq); pop takes the index's last entry.
//   - the wheel: events of the next wheelSize-1 ticks, appended unsorted
//     to their tick's bucket. Buckets are lists of fixed-size chunks cut
//     from one slab with a free list that the run reuses, so the steady
//     state allocates nothing.
//   - far: a binary heap of everything later (backed-off timers, chaos
//     crash and restart events).
//
// When near runs dry, pop advances to the earliest non-empty tick — the
// next occupied bucket or far's top, whichever comes first — moves that
// tick's events into near and sorts them. Every wheel event's tick lies
// in (cur, cur+wheelSize), so a bucket never mixes two ticks.
//
// Ordering is (virtual time, insertion sequence). Keys are unique and the
// order on them is total, so any exact priority queue pops the same
// sequence; the wheel computes the same answer a binary heap would, only
// faster. The sequence tiebreak makes the pop order — and therefore every
// RNG draw made while handling events — a pure function of the
// configuration and seed, which is the whole determinism contract: two
// events at the same virtual nanosecond are handled in the order they
// were scheduled.

// evKind discriminates what an event does on arrival.
type evKind uint8

const (
	// evDeliver hands msg to node `to` (a process, or the memory server).
	evDeliver evKind = iota
	// evTimer is a retransmission timer at process `to`; msg.opSeq names
	// the operation the timer guards (and msg.inc its incarnation), so
	// stale timers are no-ops.
	evTimer
	// evCrash takes node `to` down; msg.key carries the downtime in
	// virtual ns and msg.val the RestartKind.
	evCrash
	// evRestart brings node `to` back up; msg.val carries the
	// RestartKind that decides what survived.
	evRestart
)

// event is one scheduled occurrence. It is stored by value in near, far
// and the wheel's slab; keep it compact. It holds no pointers, so the
// queue's slices are never scanned by the garbage collector and vacated
// slots need no clearing.
type event struct {
	at   int64 // virtual time, nanoseconds
	seq  uint64
	to   int32 // destination node: process id, or serverID
	kind evKind
	msg  message
}

const (
	// wheelBits sets the wheel to 8192 buckets.
	wheelBits = 13
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
	// wheelSpanMeans is how many mean latencies the wheel must span: the
	// default retransmission timeout is 8 means, so 32 covers it plus
	// two backoffs.
	wheelSpanMeans = 32
	// defaultTickMean is the latency mean a zero-value queue sizes its
	// ticks for: Config's default of 1ms.
	defaultTickMean = 1_000_000
	// chunkSize is how many events one slab chunk holds.
	chunkSize = 8
	// noChunk terminates bucket and free lists.
	noChunk = -1
)

// eventQueue is an exact min-priority queue of events ordered by
// (at, seq); see the file comment for its layout. The zero value is
// ready to use with ticks sized for a 1ms mean latency.
type eventQueue struct {
	seq   uint64
	n     int   // events queued in total
	shift uint  // tick width is 1<<shift ns
	cur   int64 // current tick; near holds its events

	near  []event // events of ticks <= cur, unordered
	order []int32 // indices into near, by descending (at, seq)
	far   []event // binary heap: ticks >= cur+wheelSize at push time

	// The wheel's slab is cut into chunks of chunkSize events, so a
	// bucket is a short list of contiguous runs: draining one streams
	// through memory instead of chasing a pointer per event. Chunk c
	// holds evs[c*chunkSize:(c+1)*chunkSize]; a bucket's head chunk holds
	// fill[b] events and every later chunk in its list is full.
	heads  []int32                // per-bucket head chunk
	fill   []uint8                // per-bucket events in the head chunk
	occ    [wheelSize / 64]uint64 // occupancy bitmap over heads
	evs    []event                // slab of chunks
	next   []int32                // per chunk: next chunk in bucket or free list
	free   int32                  // free-list head chunk
	wheelN int                    // events in the wheel
}

// setTick sizes the ticks so the wheel spans at least wheelSpanMeans
// mean latencies. It must be called before the first push.
func (q *eventQueue) setTick(meanNs int64) {
	if meanNs < 1 {
		meanNs = 1
	}
	minTick := (wheelSpanMeans*meanNs + wheelSize - 1) / wheelSize
	q.shift = uint(bits.Len64(uint64(minTick - 1)))
	q.heads = make([]int32, wheelSize)
	for i := range q.heads {
		q.heads[i] = noChunk
	}
	q.fill = make([]uint8, wheelSize)
	q.free = noChunk
}

func (q *eventQueue) len() int { return q.n }

// push schedules msg for node `to` at virtual time `at`.
func (q *eventQueue) push(at int64, to int32, kind evKind, m message) {
	if q.heads == nil {
		q.setTick(defaultTickMean)
	}
	q.seq++
	q.n++
	e := event{at: at, seq: q.seq, to: to, kind: kind, msg: m}
	t := at >> q.shift
	switch d := t - q.cur; {
	case d <= 0:
		q.near = append(q.near, e)
		// Keep order descending: e goes before the first smaller key.
		k := int32(len(q.near) - 1)
		i, _ := slices.BinarySearchFunc(q.order, k, func(x, k int32) int {
			return cmpEvents(&q.near[k], &q.near[x])
		})
		q.order = slices.Insert(q.order, i, k)
	case d < wheelSize:
		b := t & wheelMask
		c := q.heads[b]
		if c == noChunk || q.fill[b] == chunkSize {
			c = q.newChunk(c)
			q.heads[b] = c
			q.fill[b] = 0
			q.occ[b>>6] |= 1 << (b & 63)
		}
		q.evs[int(c)*chunkSize+int(q.fill[b])] = e
		q.fill[b]++
		q.wheelN++
	default:
		q.far = heapPush(q.far, e)
	}
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() (event, bool) {
	if q.n == 0 {
		return event{}, false
	}
	if len(q.order) == 0 {
		q.advance()
	}
	q.n--
	last := len(q.order) - 1
	k := q.order[last]
	q.order = q.order[:last]
	top := q.near[k]
	if last == 0 {
		q.near = q.near[:0]
	}
	return top, true
}

// advance moves cur to the earliest non-empty tick, fills near with that
// tick's events from its bucket and from far, and sorts them. near must
// be empty and the queue non-empty.
func (q *eventQueue) advance() {
	next := int64(math.MaxInt64)
	if q.wheelN > 0 {
		next = q.nextBucketTick()
	}
	if len(q.far) > 0 {
		if ft := q.far[0].at >> q.shift; ft < next {
			next = ft
		}
	}
	q.cur = next
	// A bucket holds only ticks in (cur, cur+wheelSize), so next's bucket
	// holds tick next or nothing.
	if b := next & wheelMask; q.heads[b] != noChunk {
		n := int(q.fill[b])
		for c := q.heads[b]; c != noChunk; n = chunkSize {
			run := q.evs[int(c)*chunkSize : int(c)*chunkSize+n]
			q.near = append(q.near, run...)
			q.wheelN -= n
			nx := q.next[c]
			q.next[c] = q.free
			q.free = c
			c = nx
		}
		q.heads[b] = noChunk
		q.occ[b>>6] &^= 1 << (b & 63)
	}
	for len(q.far) > 0 && q.far[0].at>>q.shift == next {
		var e event
		q.far, e = heapPop(q.far)
		q.near = append(q.near, e)
	}
	for i := range q.near {
		q.order = append(q.order, int32(i))
	}
	slices.SortFunc(q.order, func(a, b int32) int {
		return cmpEvents(&q.near[b], &q.near[a])
	})
}

// newChunk takes a chunk from the free list, or grows the slab by one,
// and links it in front of chunk `rest`.
func (q *eventQueue) newChunk(rest int32) int32 {
	c := q.free
	if c == noChunk {
		c = int32(len(q.next))
		q.evs = append(q.evs, make([]event, chunkSize)...)
		q.next = append(q.next, rest)
		return c
	}
	q.free = q.next[c]
	q.next[c] = rest
	return c
}

// nextBucketTick returns the tick of the first occupied bucket after cur.
// The wheel must be non-empty.
func (q *eventQueue) nextBucketTick() int64 {
	start := (q.cur + 1) & wheelMask
	w := int(start >> 6)
	word := q.occ[w] &^ (1<<(start&63) - 1)
	for k := 0; word == 0; k++ {
		if k == len(q.occ) {
			panic("des: event wheel occupancy out of sync")
		}
		w = (w + 1) % len(q.occ)
		word = q.occ[w]
	}
	b := int64(w<<6 + bits.TrailingZeros64(word))
	return q.cur + (b-q.cur)&wheelMask
}

// cmpEvents orders events by (at, seq).
func cmpEvents(a, b *event) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

func evLess(a, b *event) bool { return cmpEvents(a, b) < 0 }

// heapPush adds e to the binary min-heap h.
func heapPush(h []event, e event) []event {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(&e, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	return h
}

// heapPop removes the minimum of the non-empty binary min-heap h.
func heapPop(h []event) ([]event, event) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	if last > 1 {
		siftDown(h, 0)
	}
	return h, top
}

// siftDown restores the heap property below index i.
func siftDown(h []event, i int) {
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && evLess(&h[r], &h[c]) {
			c = r
		}
		if !evLess(&h[c], &e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}
