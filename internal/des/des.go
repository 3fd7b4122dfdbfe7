// Package des implements a small discrete-event simulation kernel: a virtual
// clock and a time-ordered event queue. The network fabric (internal/tofu)
// schedules message injection and completion events on it so that shared
// resources (TNIs, links) are acquired in correct global time order
// regardless of how the caller enumerated the messages.
//
// Queue (queue.go) is the engine the simulator runs on: one clock and one
// run queue keyed (time, seq) (runq.go), FIFO runs of same-time events under
// a small heap, drained on the calling goroutine. Engine — one clock, one
// binary heap of events under the full key — is the reference it is held
// to; see the type's comment.
package des

import "fmt"

// event is a scheduled callback or a scheduled tag. The ordering key is the
// full tuple (time, sendTime, src, seq): time is when the event fires,
// sendTime is the scheduler's clock at the moment it called Schedule, src is
// the scheduling process (always 0 for the Engine) and seq is the
// scheduler's scheduling counter.
//
// fn == nil marks a tagged event: the engine hands tag to the handler its
// owner registered (Queue.SetHandler) instead of calling a closure, so
// scheduling one allocates nothing. tag sits in the four bytes that were
// padding after src, which keeps the struct at 40 bytes: every sift step
// moves whole events, and a wider one measured slower on both the closure
// and the tagged path (TestEventIs40Bytes pins the size).
//
// On one clock this collapses to the order (time, seq): src is constant and
// sendTime is non-decreasing in seq (the clock never rewinds), so comparing
// (time, sendTime, src, seq) and (time, seq) yields the same total order.
// The Queue's run queue (runq.go) therefore keys on (time, seq) alone and
// keeps its events as 16-byte slots; this 40-byte event and its heap serve
// the reference Engine, which TestRunQueueMatchesHeap holds the run queue
// to. The fabric's post-drain completion sweep orders deliveries by a key
// of the same shape (tofu.completionOrder).
type event struct {
	time     float64
	sendTime float64
	src      int32
	tag      uint32
	seq      uint64
	fn       func()
}

// before is the strict ordering of the event queue.
func (a *event) before(b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.sendTime != b.sendTime {
		return a.sendTime < b.sendTime
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// eventHeap is a direct binary min-heap over event values. It deliberately
// does not go through container/heap: that interface takes interface{}
// values, so every Push and Pop used to box an event (one heap allocation
// per scheduled event on the fabric's hottest path). The monomorphic
// push/pop below allocate only when the backing array grows.
type eventHeap []event

// push inserts ev, restoring the heap invariant by sifting up. The sift
// moves a hole instead of swapping: each level copies one event down and ev
// is written once, where the hole stops.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

// pop removes and returns the minimum event. The vacated slot is zeroed so
// the popped closure (and everything it captures) is not retained by the
// backing array until the slot is overwritten by a later push.
//
// Like push it sifts a hole: the last event is lifted out, the smaller child
// moves up into the hole level by level, and the lifted event lands where
// neither child precedes it.
func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	s[n] = event{}
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && s[right].before(&s[left]) {
			min = right
		}
		if !s[min].before(&last) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = last
	return top
}

// BudgetError reports that an event-budget-bounded run stopped before the
// queue drained. Because fabric rounds schedule a bounded number of events
// per message, exceeding a generous budget means a scheduling cycle — an
// event that (transitively) reschedules itself without advancing time — and
// NextAt names the virtual time the cycle is stuck at.
type BudgetError struct {
	// Budget is the event-count bound that was exhausted.
	Budget int
	// Now is the virtual time of the last executed event.
	Now float64
	// NextAt is the earliest pending event time — for a livelock this is the
	// virtual time the engine cannot get past.
	NextAt float64
	// Pending is the number of events still queued.
	Pending int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("des: event budget %d exhausted at t=%g with %d events pending (next at t=%g): scheduling cycle?",
		e.Budget, e.Now, e.Pending, e.NextAt)
}

// Engine is the reference virtual-time event loop: the independent anchor
// the Engine-vs-Queue property tests (queue_test.go) compare against, and
// the target of the benchmark harness's des.ns_per_event probe. It has no
// production caller — the fabric runs every round on a Queue. The zero
// value is ready to use with the clock at 0. Engines are not safe for
// concurrent use.
type Engine struct {
	now float64
	seq uint64
	pq  eventHeap
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule registers fn to run at virtual time t. Events scheduled for a
// time earlier than Now run immediately at Now (time never goes backwards).
// Ties are broken by scheduling order, which keeps runs deterministic.
func (e *Engine) Schedule(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.pq.push(event{time: t, sendTime: e.now, seq: e.seq, fn: fn})
}

// ScheduleAt registers fn to run at virtual time t, rejecting times in the
// past. Unlike Schedule it does not clamp: code computing deadlines (e.g.
// retransmit timeouts) should treat a negative delay as an arithmetic bug,
// not as "run now".
func (e *Engine) ScheduleAt(t float64, fn func()) error {
	if t < e.now {
		return fmt.Errorf("des: ScheduleAt(%g) is before now (%g)", t, e.now)
	}
	e.seq++
	e.pq.push(event{time: t, sendTime: e.now, seq: e.seq, fn: fn})
	return nil
}

// Step executes the earliest pending event, advancing the clock. It returns
// false when no events remain.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := e.pq.pop()
	e.now = ev.time
	ev.fn()
	return true
}

// Run executes events until the queue is empty and returns the final time.
// It has no event bound: a scheduling cycle livelocks. Drivers that cannot
// prove their event graph is acyclic should use RunBudget.
func (e *Engine) Run() float64 {
	for e.Step() {
	}
	return e.now
}

// RunBudget executes events until the queue is empty or budget events have
// run, whichever comes first. budget <= 0 means unbounded (identical to
// Run). On budget exhaustion with events still pending it returns a
// *BudgetError naming the stuck virtual time; the remaining events stay
// queued for the caller to inspect.
func (e *Engine) RunBudget(budget int) (float64, error) {
	if budget <= 0 {
		return e.Run(), nil
	}
	for n := 0; n < budget; n++ {
		if !e.Step() {
			return e.now, nil
		}
	}
	if len(e.pq) == 0 {
		return e.now, nil
	}
	return e.now, &BudgetError{Budget: budget, Now: e.now, NextAt: e.pq[0].time, Pending: len(e.pq)}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.pq) }

// Reset clears the queue and rewinds the clock to 0 so the engine can be
// reused for the next round without reallocating. The retained backing
// array is zeroed so abandoned events do not keep their closures alive
// across rounds.
func (e *Engine) Reset() {
	e.now = 0
	e.seq = 0
	clear(e.pq)
	e.pq = e.pq[:0]
}
