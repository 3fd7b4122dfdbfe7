package des

import (
	"fmt"
	"sync/atomic"
)

// Queue is the engine every fabric round drains: one clock, one run queue
// (runq.go) keyed (time, seq) and one scheduling counter, run on the calling
// goroutine. Its execution order is exactly the order the reference Engine
// runs the same events in; TestRunQueueMatchesHeap holds the queue to
// Engine's heap. Construct with NewQueue, schedule, then call Run or
// RunBudget. A Queue is not safe for concurrent use, except for Stats.
type Queue struct {
	now float64
	seq uint64
	rq  runQueue
	// handler executes tagged events (SetHandler); nil until one is set.
	handler func(tag uint32)
	// events counts executed events across runs; it survives Reset and is
	// atomic so Stats may be read while a run is in flight.
	events atomic.Int64
}

// NewQueue returns an empty queue with its clock at 0.
func NewQueue() *Queue {
	q := &Queue{}
	q.rq.reset()
	return q
}

// SetHandler registers the function that executes tagged events: an event
// scheduled with ScheduleTagAt runs as h(tag). The queue has one handler
// and its owner decides what a tag means; call SetHandler between runs.
func (q *Queue) SetHandler(h func(tag uint32)) { q.handler = h }

// Now returns the current virtual time.
func (q *Queue) Now() float64 { return q.now }

// Pending returns the number of queued events.
func (q *Queue) Pending() int { return q.rq.n }

// Reset clears the queue and rewinds the clock and scheduling counter to 0,
// retaining (zeroed) backing arrays for reuse. The event count is left
// alone so it accumulates across the rounds of one run.
func (q *Queue) Reset() {
	q.now = 0
	q.seq = 0
	q.rq.reset()
}

// Run executes events until the queue is empty and returns the final
// virtual time. Like Engine.Run it has no event bound; drivers that cannot
// prove their event graph acyclic should use RunBudget.
func (q *Queue) Run() float64 {
	t, _ := q.RunBudget(0)
	return t
}

// RunBudget executes events in key order until the queue is empty or budget
// events have run; budget <= 0 means unbounded. On exhaustion it returns a
// *BudgetError naming the stuck virtual time and leaves the remaining
// events queued.
func (q *Queue) RunBudget(budget int) (float64, error) {
	var stopped *BudgetError
	n := 0
	for q.rq.n > 0 {
		if budget > 0 && n >= budget {
			stopped = &BudgetError{Budget: budget, Now: q.now, NextAt: q.rq.peek(), Pending: q.rq.n}
			break
		}
		t, tag, fn := q.rq.pop()
		q.now = t
		if fn != nil {
			fn()
		} else {
			q.handler(tag)
		}
		n++
	}
	if n > 0 {
		q.events.Add(int64(n))
	}
	if stopped != nil {
		return q.now, stopped
	}
	return q.now, nil
}

// Schedule registers fn to run at virtual time t, clamping past times to
// Now exactly like Engine.Schedule.
func (q *Queue) Schedule(t float64, fn func()) {
	if t < q.now {
		t = q.now
	}
	q.seq++
	q.rq.push(t, q.seq, 0, fn)
}

// ScheduleAt registers fn to run at virtual time t, rejecting times in the
// past, exactly like Engine.ScheduleAt.
func (q *Queue) ScheduleAt(t float64, fn func()) error {
	return q.scheduleAt(t, 0, fn)
}

// ScheduleTagAt is ScheduleAt for a tagged event: at time t the queue's
// handler runs with tag. Same ordering key, same past-time rejection;
// nothing is allocated.
func (q *Queue) ScheduleTagAt(t float64, tag uint32) error {
	if q.handler == nil {
		return fmt.Errorf("des: ScheduleTagAt on a queue with no handler (SetHandler)")
	}
	return q.scheduleAt(t, tag, nil)
}

func (q *Queue) scheduleAt(t float64, tag uint32, fn func()) error {
	if t < q.now {
		return fmt.Errorf("des: ScheduleAt(%g) is before now (%g)", t, q.now)
	}
	q.seq++
	q.rq.push(t, q.seq, tag, fn)
	return nil
}

// ParallelStats is a snapshot of the queue's cumulative profile: the events
// it executed, the work a run cost. The name is kept for the benchmark
// harness, which reads it through TotalEvents.
type ParallelStats struct {
	// Events is the number of events executed.
	Events int64
}

// TotalEvents returns the number of events executed.
func (s ParallelStats) TotalEvents() int64 { return s.Events }

// Stats snapshots the cumulative profile. Safe to call while a run is in
// flight, in which case the count includes the runs that have finished.
func (q *Queue) Stats() ParallelStats {
	return ParallelStats{Events: q.events.Load()}
}
