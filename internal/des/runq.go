package des

// This file implements the Queue's event queue: a run queue.
//
// A Queue's events are ordered by the key (time, seq). That is the Engine's
// full key (time, sendTime, src, seq) with two components dropped, and the
// order is the same: there is one scheduler, so src is the same on every
// event, and sendTime is the clock when the event was scheduled, which never
// decreases while seq counts up (Reset rewinds both together).
//
// The fabric schedules in long bursts at one time: a round's transmit events
// pile up at a handful of distinct times, and nearly every push lands at the
// time of the push before it. The queue therefore stores runs. A run is a
// FIFO of events at one time, keyed (time, first) by the seq of its first
// event. A push at the time of the tail run — the run opened last — appends
// to it; any other push opens a new run. The runs sit in a small binary
// min-heap, and a pop takes the head of the top run. This is exactly (time,
// seq) order: only the tail run is ever appended to, so every event of a run
// precedes, in seq, the first event of any run opened after it. Within a run
// the order is FIFO, and between runs at one time it is the order they were
// opened in, which is what first compares. A pop never changes a run's key,
// so the heap only moves when a run opens or empties.
//
// Both push and pop are O(1) while the pending events span few distinct
// times, and O(log runs) in general. Events live in one arena of 16-byte
// slots linked into runs, runs in a second arena, each with a free list, so
// a warm queue allocates nothing and a recycled run keeps no storage of its
// own.

// qslot is one queued event: a tag or a closure (fn == nil marks a tag, as
// in event) and the index of the next slot of its run, or of the free list.
type qslot struct {
	tag  uint32
	next int32
	fn   func()
}

// run is a FIFO of queued events at one time, from slot head to slot last.
// A run on the free list links the next free run through head.
type run struct {
	time       float64
	first      uint64
	head, last int32
}

// none ends a slot or run list.
const none int32 = -1

// runQueue is a Queue's event queue; call reset before first use.
type runQueue struct {
	slots    []qslot
	freeSlot int32
	runs     []run
	freeRun  int32
	// heap holds the indices of the live runs, a binary min-heap on (time,
	// first).
	heap []int32
	// tail is the run the last push opened or appended to, or none once that
	// run has emptied.
	tail int32
	// n counts the queued events.
	n int
}

// reset empties the queue, zeroing the slots so abandoned closures are not
// retained, and keeps the arenas' backing arrays.
func (q *runQueue) reset() {
	clear(q.slots)
	q.slots = q.slots[:0]
	q.runs = q.runs[:0]
	q.heap = q.heap[:0]
	q.freeSlot, q.freeRun, q.tail = none, none, none
	q.n = 0
}

// peek returns the time of the next event; the queue must not be empty.
func (q *runQueue) peek() float64 { return q.runs[q.heap[0]].time }

// push queues an event at time t with scheduling counter seq, which must
// exceed that of every event pushed since reset.
func (q *runQueue) push(t float64, seq uint64, tag uint32, fn func()) {
	s := q.freeSlot
	if s != none {
		q.freeSlot = q.slots[s].next
		q.slots[s] = qslot{tag: tag, next: none, fn: fn}
	} else {
		s = int32(len(q.slots))
		q.slots = append(q.slots, qslot{tag: tag, next: none, fn: fn})
	}
	q.n++
	if q.tail != none {
		if r := &q.runs[q.tail]; r.time == t {
			q.slots[r.last].next = s
			r.last = s
			return
		}
	}
	ri := q.freeRun
	if ri != none {
		q.freeRun = q.runs[ri].head
		q.runs[ri] = run{time: t, first: seq, head: s, last: s}
	} else {
		ri = int32(len(q.runs))
		q.runs = append(q.runs, run{time: t, first: seq, head: s, last: s})
	}
	q.tail = ri
	q.heap = append(q.heap, ri)
	q.up(len(q.heap) - 1)
}

// pop removes the next event and returns its time, tag and closure. The
// vacated slot is zeroed so the closure is not retained by the arena.
func (q *runQueue) pop() (t float64, tag uint32, fn func()) {
	ri := q.heap[0]
	r := &q.runs[ri]
	s := r.head
	sl := &q.slots[s]
	t, tag, fn = r.time, sl.tag, sl.fn
	next := sl.next
	*sl = qslot{next: q.freeSlot}
	q.freeSlot = s
	q.n--
	if next != none {
		r.head = next
		return t, tag, fn
	}
	// The run emptied: recycle it and take it off the heap.
	if q.tail == ri {
		q.tail = none
	}
	*r = run{head: q.freeRun}
	q.freeRun = ri
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	return t, tag, fn
}

// before orders runs a and b by (time, first).
func (q *runQueue) before(a, b int32) bool {
	x, y := &q.runs[a], &q.runs[b]
	if x.time != y.time {
		return x.time < y.time
	}
	return x.first < y.first
}

// up sifts heap entry i toward the root.
func (q *runQueue) up(i int) {
	h := q.heap
	ri := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(ri, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ri
}

// down sifts heap entry i toward the leaves.
func (q *runQueue) down(i int) {
	h := q.heap
	n := len(h)
	ri := h[i]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && q.before(h[right], h[left]) {
			min = right
		}
		if !q.before(h[min], ri) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = ri
}
