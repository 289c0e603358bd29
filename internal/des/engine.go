package des

import (
	"math"
	"math/bits"
	"slices"
)

// The event queue is a timing wheel (Varghese & Lauck's hashed wheel,
// close kin of Brown's calendar queue) rather than one binary heap: every
// delay the engine schedules lies in a narrow band — message latency
// around its mean, retransmission timers a few means ahead — so bucketing
// events by virtual-time tick replaces a ~16-level sift through a heap of
// tens of thousands of events with an append to a bucket and a linear
// ordering pass over the few dozen events that share a tick.
//
// Virtual time is cut into ticks of 1<<shift ns. Every queued event sits
// in exactly one of three places:
//
//   - near: the events of the current tick, in pop order; pop takes the
//     next one in place.
//   - the wheel: events of the next wheelSize-1 ticks, appended unsorted
//     to their tick's bucket. Buckets are lists of fixed-size chunks cut
//     from one slab, presized per run, with a free list that the run
//     reuses, so the steady state allocates nothing.
//   - far: a binary heap of everything later (backed-off timers, chaos
//     crash and restart events).
//
// When near runs dry, pop advances to the earliest non-empty tick — the
// next occupied bucket or far's top, whichever comes first — and moves
// that tick's events into near. Every wheel event's tick lies in
// (cur, cur+wheelSize), so a bucket never mixes two ticks.
//
// Ordering is (virtual time, insertion order). The order is total, so any
// exact priority queue pops the same sequence; the wheel computes the
// same answer a binary heap would, only faster. The insertion-order
// tiebreak makes the pop order — and therefore every RNG draw made while
// handling events — a pure function of the configuration and seed, which
// is the whole determinism contract: two events at the same virtual
// nanosecond are handled in the order they were scheduled.
//
// Only far stores an insertion sequence number, next to each of its
// events; an event itself carries none. advance takes a tick's events in
// insertion order among equal times: first far's events of the tick,
// which far pops in (at, seq) order and which were all pushed before any
// wheel event of that tick (cur only grows, so once a tick is inside the
// wheel's span it stays there); then the bucket's chunks, oldest first,
// each filled in push order. Every step that orders them from there is
// stable, so near ends up in (time, insertion order) without a general
// sort. A tick of more than denseTick events is first scattered into
// near by a counting pass over 1<<slotBits equal sub-tick slots, straight
// from far's spill and the chunks; a smaller tick is copied as it is. An
// insertion pass on time then finishes the order: after a counting pass
// it only moves events inside their slot, and a tick of at most
// denseTick events is too small for the counting pass to pay. A push
// into the current tick goes after every queued event of its time,
// which is where a later insertion belongs.
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
// and the wheel's slab, 48 bytes; keep it compact. It holds no pointers,
// so the queue's slices are never scanned by the garbage collector and
// vacated slots need no clearing.
type event struct {
	at   int64 // virtual time, nanoseconds
	to   int32 // destination node: process id, or serverID
	kind evKind
	msg  message
}

// farEvent is an event in far with its insertion sequence number, which
// orders far's events of equal time.
type farEvent struct {
	event
	seq uint64
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
	// noChunk terminates the free list.
	noChunk = -1
	// slotBits cuts a tick into 1<<slotBits sub-tick slots for the
	// counting pass: 32 ns slots at the default 4096 ns tick, so the ~36
	// events of a des-scale tick mostly sit alone in their slot. Replaying
	// the ticks of a des-scale pair through the queue on a 2-CPU x86-64
	// host, 128 slots ran ~3% faster than 64 and ~11% faster than 32.
	slotBits = 7
	// denseTick is the most events a tick may hold and still skip the
	// counting pass. In the same replay, ticks of up to ~24 events were
	// cheaper by insertion alone, since clearing and summing the slot
	// counts then costs more than the moves they save; larger ones were
	// cheaper counted (at 40 events, ~24 against ~35 ns per event).
	denseTick = 24
)

// eventQueue is an exact min-priority queue of events ordered by
// (time, insertion order); see the file comment for its layout. The zero
// value is ready to use with ticks sized for a 1ms mean latency.
type eventQueue struct {
	seq   uint64 // pushes into far so far
	n     int    // events queued in total
	shift uint   // tick width is 1<<shift ns
	cur   int64  // current tick; near holds its events
	last  int64  // time of the last pop; no push may be earlier

	near  []event    // events of tick cur in pop order
	head  int        // near[head:] are still queued
	far   []farEvent // binary heap: ticks >= cur+wheelSize at push time
	spill []event    // advance's scratch: far's events of the new tick

	// slots is the counting pass's scratch: per sub-tick slot, its count
	// and then the index in near where its next event goes.
	slots [1 << slotBits]int32

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

// bucket is one wheel slot's list of n events in chunks, from its oldest
// chunk, head, to its newest, tail; every chunk but the tail is full.
type bucket struct {
	head, tail int32
	n          int32 // 0 when the bucket is empty
}

// setTick sizes the ticks so the wheel spans at least wheelSpanMeans
// mean latencies. It must be called before the first push.
func (q *eventQueue) setTick(meanNs int64) {
	if meanNs < 1 {
		meanNs = 1
	}
	// The smallest tick that spans the means, ceil(meanNs*wheelSpanMeans
	// / wheelSize), divided out first so that no mean overflows it: the
	// widest tick, for a mean near math.MaxInt64, is 1<<55 ns, so no tick
	// width needs a cap.
	minTick := (meanNs-1)/(wheelSize/wheelSpanMeans) + 1
	q.shift = uint(bits.Len64(uint64(minTick - 1)))
	q.buckets = make([]bucket, wheelSize)
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
	q.n++
	e := event{at: at, to: to, kind: kind, msg: m}
	t := at >> q.shift
	switch d := t - q.cur; {
	case d == 0:
		// e follows every queued event of the tick with the same time.
		// Only near[head:] moves, so the event the last pop returned
		// stays put.
		q.near = append(q.near, e)
		sink(q.near[q.head:], len(q.near)-1-q.head)
	case d < wheelSize:
		b := t & wheelMask
		bk := &q.buckets[b]
		if bk.n%chunkSize == 0 {
			c := q.newChunk()
			if bk.n == 0 {
				bk.head = c
				q.occ[b>>6] |= 1 << (b & 63)
			} else {
				q.next[bk.tail] = c
			}
			bk.tail = c
		}
		q.evs[int(bk.tail)*chunkSize+int(bk.n%chunkSize)] = e
		bk.n++
		q.wheelN++
	default:
		q.seq++
		q.far = heapPush(q.far, farEvent{e, q.seq})
	}
}

// pop removes the earliest event and returns it in place in near, or nil
// when the queue is empty. The event stays valid until the next pop:
// only advance, which runs inside pop, overwrites near's slots, and a
// push into the current tick moves only the events after it (or copies
// near to a larger array, leaving the old one intact).
func (q *eventQueue) pop() *event {
	if q.n == 0 {
		return nil
	}
	if q.head == len(q.near) {
		q.advance()
	}
	q.n--
	top := &q.near[q.head]
	q.head++
	q.last = top.at
	return top
}

// advance moves cur to the earliest non-empty tick and fills near with
// that tick's events, from far and from its bucket, in pop order. near
// must be drained and the queue non-empty.
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
	q.cur, q.head = next, 0
	q.spill = q.spill[:0]
	for len(q.far) > 0 && q.far[0].at>>q.shift == next {
		q.spill = append(q.spill, q.far[0].event)
		q.far = heapPop(q.far)
	}
	// A bucket holds only ticks in (cur, cur+wheelSize), so next's bucket
	// holds tick next or nothing.
	b := next & wheelMask
	bk := &q.buckets[b]
	if m := len(q.spill) + int(bk.n); m > denseTick {
		q.scatter(bk, m)
	} else {
		q.near = append(q.near[:0], q.spill...)
		for c, left := bk.head, int(bk.n); left > 0; c, left = q.next[c], left-chunkSize {
			i := int(c) * chunkSize
			q.near = append(q.near, q.evs[i:i+min(left, chunkSize)]...)
		}
	}
	for i := 1; i < len(q.near); i++ {
		sink(q.near, i)
	}
	if bk.n > 0 {
		// The bucket's chunks go back to the free list in one splice.
		q.next[bk.tail] = q.free
		q.free = bk.head
		q.wheelN -= int(bk.n)
		bk.n = 0
		q.occ[b>>6] &^= 1 << (b & 63)
	}
}

// scatter fills near with the m events of spill and bucket bk, ordered by
// sub-tick slot and in insertion order within each slot: a stable
// counting pass that reads the events where they lie.
func (q *eventQueue) scatter(bk *bucket, m int) {
	base := q.cur << q.shift
	// An offset in the tick has shift bits; its top slotBits of them, or
	// all of them in a tick narrower than 1<<slotBits ns, pick the slot.
	sub := q.shift - min(q.shift, slotBits)
	slot := func(at int64) int { return int(uint64(at-base)>>sub) & (1<<slotBits - 1) }
	q.slots = [1 << slotBits]int32{}
	for i := range q.spill {
		q.slots[slot(q.spill[i].at)]++
	}
	for c, left := bk.head, int(bk.n); left > 0; c, left = q.next[c], left-chunkSize {
		i := int(c) * chunkSize
		for _, e := range q.evs[i : i+min(left, chunkSize)] {
			q.slots[slot(e.at)]++
		}
	}
	var sum int32
	for s, k := range q.slots {
		q.slots[s] = sum
		sum += k
	}
	q.near = slices.Grow(q.near[:0], m)[:m]
	for _, e := range q.spill {
		s := slot(e.at)
		q.near[q.slots[s]] = e
		q.slots[s]++
	}
	for c, left := bk.head, int(bk.n); left > 0; c, left = q.next[c], left-chunkSize {
		i := int(c) * chunkSize
		for _, e := range q.evs[i : i+min(left, chunkSize)] {
			s := slot(e.at)
			q.near[q.slots[s]] = e
			q.slots[s]++
		}
	}
}

// sink moves evs[i] down past every earlier event with a later time,
// keeping it after those with an equal one: one step of a stable
// insertion sort.
func sink(evs []event, i int) {
	if i == 0 || evs[i-1].at <= evs[i].at {
		return
	}
	e := evs[i]
	for ; i > 0 && evs[i-1].at > e.at; i-- {
		evs[i] = evs[i-1]
	}
	evs[i] = e
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

// evLess orders far's events by (at, seq).
func evLess(a, b *farEvent) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// heapPush adds e to the binary min-heap h.
func heapPush(h []farEvent, e farEvent) []farEvent {
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
func heapPop(h []farEvent) []farEvent {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	if last > 1 {
		siftDown(h, 0)
	}
	return h
}

// siftDown restores the heap property below index i.
func siftDown(h []farEvent, i int) {
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
