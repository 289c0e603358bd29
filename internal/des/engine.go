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
//   - near: the events of the current tick, with an ascending index of
//     packed integer keys; pop takes the index's next entry.
//   - the wheel: events of the next wheelSize-1 ticks, appended unsorted
//     to their tick's bucket. Buckets are lists of fixed-size chunks cut
//     from one slab, presized per run, with a free list that the run
//     reuses, so the steady state allocates nothing.
//   - far: a binary heap of everything later (backed-off timers, chaos
//     crash and restart events).
//
// When near runs dry, pop advances to the earliest non-empty tick — the
// next occupied bucket or far's top, whichever comes first — moves that
// tick's events into near and sorts the index. Every wheel event's tick
// lies in (cur, cur+wheelSize), so a bucket never mixes two ticks.
//
// Ordering is (virtual time, insertion sequence). Keys are unique and the
// order on them is total, so any exact priority queue pops the same
// sequence; the wheel computes the same answer a binary heap would, only
// faster. The sequence tiebreak makes the pop order — and therefore every
// RNG draw made while handling events — a pure function of the
// configuration and seed, which is the whole determinism contract: two
// events at the same virtual nanosecond are handled in the order they
// were scheduled.
//
// The index never compares seq. advance fills near in seq order among
// equal times: first far's events of the tick, which far pops in (at, seq)
// order and which were all pushed before any wheel event of that tick (cur
// only grows, so once a tick is inside the wheel's span it stays there);
// then the bucket's chunks, oldest first, each filled in push order; and
// a push into the current tick appends after them all. So a key of
// offset-in-tick<<32 | index-in-near orders near exactly by (at, seq),
// and a plain integer sort does what a comparator on events would. setTick
// caps shift at maxShift so every offset fits in 32 bits; for a mean
// latency so long that the cap binds, the wheel spans fewer means and
// more events wait in far, with the order still exact.
//
// The one precondition: no push is earlier than the last pop (the engine
// schedules at now plus a non-negative delay). That keeps every push at
// or after the current tick; push panics on a violation rather than
// misorder.

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
	// maxShift caps the tick width at 1<<32 ns, so an event's offset in
	// its tick fits in the high half of a near key.
	maxShift = 32
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
	last  int64 // time of the last pop; no push may be earlier

	near []event  // events of tick cur, in seq order among equal times
	keys []uint64 // offset-in-tick<<32 | index into near, ascending
	head int      // keys[head:] are still queued
	far  []event  // binary heap: ticks >= cur+wheelSize at push time

	// The wheel's slab is cut into chunks of chunkSize events, so a
	// bucket is a short list of contiguous runs: draining one streams
	// through memory instead of chasing a pointer per event. Chunk c
	// holds evs[c*chunkSize:(c+1)*chunkSize].
	buckets []bucket
	occ     [wheelSize / 64]uint64 // occupancy bitmap over buckets
	evs     []event                // slab of chunks
	next    []int32                // per chunk: next chunk in bucket or free list
	free    int32                  // free-list head chunk
	wheelN  int                    // events in the wheel
}

// bucket is one wheel slot's list of chunks, from its oldest chunk to its
// newest, the tail, which holds fill events while every earlier chunk is
// full.
type bucket struct {
	head, tail int32 // head is noChunk when the bucket is empty
	fill       uint8
}

// setTick sizes the ticks so the wheel spans at least wheelSpanMeans
// mean latencies, or as much as ticks of 1<<maxShift ns reach. It must
// be called before the first push.
func (q *eventQueue) setTick(meanNs int64) {
	if meanNs < 1 {
		meanNs = 1
	}
	minTick := (wheelSpanMeans*meanNs + wheelSize - 1) / wheelSize
	q.shift = min(uint(bits.Len64(uint64(minTick-1))), maxShift)
	q.buckets = make([]bucket, wheelSize)
	for i := range q.buckets {
		q.buckets[i].head = noChunk
	}
	q.free = noChunk
}

// reserve presizes the slab for a run of procs processes: one chunk per
// process, up to one per bucket. That covers the peak of a lossy n=10k
// run (about 7.7k chunks) so its hot loop never regrows the slab; other
// runs still grow it as they need. The slab lives and dies with its run.
func (q *eventQueue) reserve(procs int) {
	chunks := min(procs, wheelSize)
	q.evs = make([]event, 0, chunks*chunkSize)
	q.next = make([]int32, 0, chunks)
}

func (q *eventQueue) len() int { return q.n }

// push schedules msg for node `to` at virtual time `at`, which must not
// be earlier than the last pop.
func (q *eventQueue) push(at int64, to int32, kind evKind, m message) {
	if q.buckets == nil {
		q.setTick(defaultTickMean)
	}
	if at < q.last {
		panic("des: event pushed earlier than the last pop")
	}
	q.seq++
	q.n++
	e := event{at: at, seq: q.seq, to: to, kind: kind, msg: m}
	t := at >> q.shift
	switch d := t - q.cur; {
	case d == 0:
		// e follows every queued event of the tick with the same time:
		// its index is the largest.
		k := uint64(at-t<<q.shift)<<32 | uint64(len(q.near))
		q.near = append(q.near, e)
		i, _ := slices.BinarySearch(q.keys[q.head:], k)
		q.keys = slices.Insert(q.keys, q.head+i, k)
	case d < wheelSize:
		b := t & wheelMask
		bk := &q.buckets[b]
		switch {
		case bk.head == noChunk:
			bk.head = q.newChunk()
			bk.tail, bk.fill = bk.head, 0
			q.occ[b>>6] |= 1 << (b & 63)
		case bk.fill == chunkSize:
			c := q.newChunk()
			q.next[bk.tail] = c
			bk.tail, bk.fill = c, 0
		}
		q.evs[int(bk.tail)*chunkSize+int(bk.fill)] = e
		bk.fill++
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
	if q.head == len(q.keys) {
		q.advance()
	}
	q.n--
	top := q.near[uint32(q.keys[q.head])]
	q.head++
	q.last = top.at
	return top, true
}

// advance moves cur to the earliest non-empty tick, fills near with that
// tick's events from far and from its bucket, in that order, and sorts
// their keys. near must be drained and the queue non-empty.
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
	q.near, q.keys, q.head = q.near[:0], q.keys[:0], 0
	for len(q.far) > 0 && q.far[0].at>>q.shift == next {
		var e event
		q.far, e = heapPop(q.far)
		q.near = append(q.near, e)
	}
	// A bucket holds only ticks in (cur, cur+wheelSize), so next's bucket
	// holds tick next or nothing.
	if b := next & wheelMask; q.buckets[b].head != noChunk {
		bk := &q.buckets[b]
		for c := bk.head; ; {
			n := chunkSize
			if c == bk.tail {
				n = int(bk.fill)
			}
			q.near = append(q.near, q.evs[int(c)*chunkSize:int(c)*chunkSize+n]...)
			q.wheelN -= n
			nx := q.next[c]
			q.next[c] = q.free
			q.free = c
			if c == bk.tail {
				break
			}
			c = nx
		}
		bk.head = noChunk
		q.occ[b>>6] &^= 1 << (b & 63)
	}
	base := next << q.shift
	for i := range q.near {
		q.keys = append(q.keys, uint64(q.near[i].at-base)<<32|uint64(i))
	}
	slices.Sort(q.keys)
}

// newChunk takes a chunk from the free list, or grows the slab by one.
func (q *eventQueue) newChunk() int32 {
	c := q.free
	if c == noChunk {
		c = int32(len(q.next))
		q.evs = append(q.evs, make([]event, chunkSize)...)
		q.next = append(q.next, noChunk)
		return c
	}
	q.free = q.next[c]
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
