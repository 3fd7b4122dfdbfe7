package des

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file implements the sharded engine. The event loop is split into
// logical processes (LPs), each with its own clock, queue and scheduling
// counter, and an event schedules only on the LP it runs on: no event ever
// crosses LPs. An LP is therefore an independent shard, and a run drains
// every LP's queue to empty with the same serial loop — LP 0 on the calling
// goroutine, one goroutine per further LP — with no synchronization between
// them until the last one stops.
//
// Determinism: each LP pops its run queue (runq.go) in the strict total
// order (time, seq), which on one LP is the order of the Engine's key
// (time, sendTime, src, seq). Its execution order is therefore exactly the
// order a serial Engine would run that LP's events in, whatever the
// goroutine interleaving across LPs.

// ParallelEngine executes events on one or more LPs. Construct with
// NewParallel, schedule the initial events on the LPs (LP method), then call
// Run or RunBudget from a single goroutine; the engine spawns its worker
// goroutines per run and joins them before returning, so no Close is needed.
//
// With a single LP a run is a serial loop on the caller with no goroutines.
type ParallelEngine struct {
	lps []*LP
	// handler executes tagged events (SetHandler); nil until one is set.
	handler func(l *LP, tag uint32)
}

// LP is one logical process: a shard of the event loop with its own clock,
// queue and scheduling counter. All methods must be called either from the
// single goroutine that drives the engine (before/after Run) or from event
// callbacks executing on this LP — an event callback must only touch the LP
// it was scheduled on.
type LP struct {
	eng *ParallelEngine
	id  int32
	now float64
	seq uint64
	q   runQueue
	// stopped is the budget error of this LP's last drain; nil when it
	// drained.
	stopped *BudgetError
	// events counts executed events across runs (see stats.go); it survives
	// Reset and is atomic so Stats can read it mid-run.
	events atomic.Int64
}

// NewParallel builds an engine with lps logical processes.
func NewParallel(lps int) (*ParallelEngine, error) {
	if lps < 1 {
		return nil, fmt.Errorf("des: NewParallel needs at least 1 LP, got %d", lps)
	}
	p := &ParallelEngine{lps: make([]*LP, lps)}
	for i := range p.lps {
		p.lps[i] = &LP{eng: p, id: int32(i)}
		p.lps[i].q.reset()
	}
	return p, nil
}

// SetHandler registers the function that executes tagged events: an event
// scheduled with ScheduleTagAt runs as h(l, tag) on the LP l it was scheduled
// on, under the same rule as a closure event — h must only touch state owned
// by l. The engine has one handler and its owner decides what a tag means;
// call SetHandler from the driving goroutine, not during a run.
func (p *ParallelEngine) SetHandler(h func(l *LP, tag uint32)) { p.handler = h }

// LPs returns the number of logical processes.
func (p *ParallelEngine) LPs() int { return len(p.lps) }

// LP returns logical process i.
func (p *ParallelEngine) LP(i int) *LP { return p.lps[i] }

// Pending returns the number of queued events across all LPs.
func (p *ParallelEngine) Pending() int {
	n := 0
	for _, l := range p.lps {
		n += l.q.n
	}
	return n
}

// Reset clears every LP's queue and rewinds every clock and scheduling
// counter to 0, retaining (zeroed) backing arrays for reuse. The event
// counters are left alone so they accumulate across the rounds of one run;
// see ResetStats.
func (p *ParallelEngine) Reset() {
	for _, l := range p.lps {
		l.now = 0
		l.seq = 0
		l.stopped = nil
		l.q.reset()
	}
}

// Run executes events until every LP's queue is empty and returns the final
// virtual time (the maximum LP clock). Like Engine.Run it has no event
// bound; drivers that cannot prove their event graph acyclic should use
// RunBudget.
func (p *ParallelEngine) Run() float64 {
	t, _ := p.RunBudget(0)
	return t
}

// RunBudget drains every LP until its queue is empty or it has run budget
// events; budget <= 0 means unbounded. The budget is per LP, so an LP caught
// in a scheduling cycle stops alone while the others drain. On exhaustion it
// returns the *BudgetError of the lowest-index LP that stopped, with Pending
// summed over all LPs, and leaves the remaining events queued.
func (p *ParallelEngine) RunBudget(budget int) (float64, error) {
	if len(p.lps) == 1 {
		p.lps[0].drain(budget)
	} else {
		p.drainShards(budget)
	}
	final, pending := 0.0, 0
	var stopped *BudgetError
	for _, l := range p.lps {
		final = max(final, l.now)
		pending += l.q.n
		if stopped == nil {
			stopped = l.stopped
		}
	}
	if stopped != nil {
		err := *stopped
		err.Pending = pending
		return final, &err
	}
	return final, nil
}

// drainShards drains LP 0 on the calling goroutine and every further LP on
// its own, returning once all have stopped.
func (p *ParallelEngine) drainShards(budget int) {
	var wg sync.WaitGroup
	for _, l := range p.lps[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.drain(budget)
		}()
	}
	p.lps[0].drain(budget)
	wg.Wait()
}

// drain runs this LP's events in key order until its queue is empty or
// budget events have run, recording a BudgetError on exhaustion.
func (l *LP) drain(budget int) {
	l.stopped = nil
	n := 0
	for l.q.n > 0 {
		if budget > 0 && n >= budget {
			l.stopped = &BudgetError{Budget: budget, Now: l.now, NextAt: l.q.peek(), Pending: l.q.n}
			break
		}
		t, tag, fn := l.q.pop()
		l.now = t
		if fn != nil {
			fn()
		} else {
			l.eng.handler(l, tag)
		}
		n++
	}
	if n > 0 {
		l.events.Add(int64(n))
	}
}

// ID returns this LP's index.
func (l *LP) ID() int { return int(l.id) }

// Now returns this LP's local virtual time.
func (l *LP) Now() float64 { return l.now }

// Pending returns the number of events queued on this LP.
func (l *LP) Pending() int { return l.q.n }

// Schedule registers fn to run on this LP at virtual time t, clamping past
// times to Now exactly like Engine.Schedule.
func (l *LP) Schedule(t float64, fn func()) {
	if t < l.now {
		t = l.now
	}
	l.seq++
	l.q.push(t, l.seq, 0, fn)
}

// ScheduleAt registers fn to run on this LP at virtual time t, rejecting
// times in the past, exactly like Engine.ScheduleAt.
func (l *LP) ScheduleAt(t float64, fn func()) error {
	return l.scheduleAt(t, 0, fn)
}

// ScheduleTagAt is ScheduleAt for a tagged event: at time t the engine's
// handler runs with tag on this LP. Same ordering key, same past-time
// rejection; nothing is allocated.
func (l *LP) ScheduleTagAt(t float64, tag uint32) error {
	if l.eng.handler == nil {
		return fmt.Errorf("des: ScheduleTagAt on an engine with no handler (SetHandler)")
	}
	return l.scheduleAt(t, tag, nil)
}

func (l *LP) scheduleAt(t float64, tag uint32, fn func()) error {
	if t < l.now {
		return fmt.Errorf("des: ScheduleAt(%g) is before now (%g)", t, l.now)
	}
	l.seq++
	l.q.push(t, l.seq, tag, fn)
	return nil
}
