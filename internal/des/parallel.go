package des

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the conservative parallel DES. The event loop is
// sharded into logical processes (LPs), each with its own clock, heap and
// scheduling counter, synchronized by barrier epochs:
//
//   1. The lead LP computes the epoch horizon
//          horizon = min over LPs of earliest-pending-time + lookahead.
//   2. Every LP executes its local events with time < horizon in parallel.
//      Cross-LP sends made during the epoch are staged in per-destination
//      outboxes, never touching another LP's heap.
//   3. Barrier. Every LP merges the events staged for it into its heap.
//   4. Barrier. The lead recomputes the horizon; repeat until drained.
//
// Safety: the caller guarantees (and SendAt enforces) that a cross-LP event
// lands at least `lookahead` after the sender's clock. Any event executed
// in the epoch has time < horizon <= sender-clock + lookahead <= landing
// time, so nothing merged at step 3 can be earlier than an event already
// executed — no LP ever receives an event in its past, and no rollback is
// needed. For a torus fabric the lookahead is the minimum inter-node link
// latency, which is strictly positive, so every epoch executes at least the
// globally earliest event and the loop always makes progress.
//
// Determinism: each LP pops its heap in the strict total order
// (time, sendTime, src, seq); the keys are unique (src, seq) pairs, so the
// pop sequence is independent of merge timing and goroutine interleaving.
// Per LP, the execution order is exactly the order the serial Engine would
// execute that LP's events in.
//
// The epoch barrier is a sense-reversing barrier with a bounded spin:
// epochs are far shorter than a scheduler timeslice, so with a hardware
// thread per LP the release is observed within a few yielding spins and no
// LP ever parks. The fallback after the spin budget parks on a
// per-generation channel, which matters on oversubscribed hosts — a waiter
// stuck in a pure Gosched loop would steal cycles from the one LP still
// executing its epoch. The spin loop uses only atomics (synchronization
// edges under the race detector) and runtime.Gosched, the sanctioned
// politeness call of the spinlock analyzer.

// spinBarrier is a reusable sense-reversing barrier for n participants.
type spinBarrier struct {
	n       int32
	spins   int
	arrived atomic.Int32
	gen     atomic.Uint32
	// release[g%2] is closed to free the parked waiters of generation g.
	// The last arrival re-arms the other slot before advancing gen: no
	// participant can enter generation g+1 (and touch that slot) until gen
	// advances, and nobody can re-arm slot g%2 again until every waiter of
	// generation g has arrived at barrier g+1, so the slots never race.
	release [2]chan struct{}
}

func (b *spinBarrier) reset(n int32) {
	b.n = n
	b.arrived.Store(0)
	b.gen.Store(0)
	b.release[0] = make(chan struct{})
	b.release[1] = make(chan struct{})
	// With fewer hardware threads than LPs somebody always has to wait for
	// the scheduler anyway; park immediately instead of yield-spinning.
	b.spins = 0
	if runtime.GOMAXPROCS(0) >= int(n) {
		b.spins = 128
	}
}

// wait blocks until all n participants have arrived. The last arrival
// resets the count, advances the generation and releases the rest.
func (b *spinBarrier) wait() {
	gen := b.gen.Load()
	if b.arrived.Add(1) == b.n {
		b.release[(gen+1)%2] = make(chan struct{})
		b.arrived.Store(0)
		b.gen.Add(1)
		close(b.release[gen%2])
		return
	}
	for i := 0; i < b.spins; i++ {
		if b.gen.Load() != gen {
			return
		}
		runtime.Gosched()
	}
	<-b.release[gen%2]
}

// ParallelEngine executes events across multiple LPs under conservative
// barrier-epoch synchronization. Construct with NewParallel, schedule the
// initial events on the LPs (LP method), then call Run or RunBudget from a
// single goroutine; the engine spawns its worker goroutines per run and
// joins them before returning, so no Close is needed.
//
// With a single LP the engine degenerates to a serial loop with no
// goroutines and no barriers.
type ParallelEngine struct {
	lookahead float64
	lps       []*LP
	bar       spinBarrier
	// handler executes tagged events (SetHandler); nil until one is set.
	handler func(l *LP, tag uint32)

	// Epoch state: written only by the lead LP between the merge barrier and
	// the publish barrier (or before workers spawn), read by all LPs after.
	horizon   float64
	done      bool
	budgetErr *BudgetError

	// profile gates barrier-wait wall-clock timing (SetProfiling); set from
	// the driving goroutine before a run. The cheap counters below are
	// always on — see stats.go.
	profile bool
	// epochs counts published horizons; laLimited the subset in which some
	// LP's earliest pending event already lay at or beyond the horizon.
	// Written by the lead LP, atomics so Stats can read them mid-run.
	epochs, laLimited atomic.Int64
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
	pq  eventHeap
	// out[dst] stages events sent to LP dst during the current epoch; the
	// destination merges and clears it at the epoch barrier.
	out [][]event
	// ran counts events executed during the current Run, for the budget.
	ran int
	// prof is the cumulative profile (see stats.go); survives Reset.
	prof lpProf
}

// NewParallel builds a parallel engine with lps logical processes and the
// given conservative lookahead (seconds). lookahead must be positive when
// lps > 1: it is the minimum virtual-time distance of any cross-LP send,
// and a zero window would stall the epoch loop.
func NewParallel(lps int, lookahead float64) (*ParallelEngine, error) {
	if lps < 1 {
		return nil, fmt.Errorf("des: NewParallel needs at least 1 LP, got %d", lps)
	}
	if lps > 1 && !(lookahead > 0) {
		return nil, fmt.Errorf("des: NewParallel with %d LPs needs a positive lookahead, got %g", lps, lookahead)
	}
	p := &ParallelEngine{lookahead: lookahead, lps: make([]*LP, lps)}
	for i := range p.lps {
		p.lps[i] = &LP{eng: p, id: int32(i), out: make([][]event, lps)}
	}
	return p, nil
}

// SetHandler registers the function that executes tagged events: an event
// scheduled with ScheduleTagAt or SendTagAt runs as h(l, tag) on the LP l it
// was scheduled on, under the same rule as a closure event — h must only
// touch state owned by l. The engine has one handler and its owner decides
// what a tag means; call SetHandler from the driving goroutine, not during
// a run.
func (p *ParallelEngine) SetHandler(h func(l *LP, tag uint32)) { p.handler = h }

// LPs returns the number of logical processes.
func (p *ParallelEngine) LPs() int { return len(p.lps) }

// Lookahead returns the conservative lookahead window in seconds.
func (p *ParallelEngine) Lookahead() float64 { return p.lookahead }

// LP returns logical process i.
func (p *ParallelEngine) LP(i int) *LP { return p.lps[i] }

// Pending returns the number of queued events across all LPs.
func (p *ParallelEngine) Pending() int {
	n := 0
	for _, l := range p.lps {
		n += len(l.pq)
		for _, box := range l.out {
			n += len(box)
		}
	}
	return n
}

// Reset clears every LP's queue and outboxes and rewinds every clock to 0,
// retaining (zeroed) backing arrays for reuse. The profiling counters are
// left alone so they accumulate across the rounds of one run; see
// ResetStats.
func (p *ParallelEngine) Reset() {
	for _, l := range p.lps {
		l.now = 0
		l.seq = 0
		l.ran = 0
		clear(l.pq)
		l.pq = l.pq[:0]
		for i, box := range l.out {
			clear(box)
			l.out[i] = box[:0]
		}
	}
	p.done = false
	p.budgetErr = nil
}

// Run executes events until every LP's queue is empty and returns the final
// virtual time (the maximum LP clock). Like Engine.Run it has no event
// bound; drivers that cannot prove their event graph acyclic should use
// RunBudget.
func (p *ParallelEngine) Run() float64 {
	t, _ := p.RunBudget(0)
	return t
}

// RunBudget executes events until all queues drain or roughly budget events
// have run. budget <= 0 means unbounded. The budget is enforced exactly for
// a single LP; with multiple LPs it is checked per LP within an epoch and
// globally at epoch boundaries, so a run may overshoot by up to one epoch
// per LP before stopping — the bound exists to break scheduling cycles, not
// to meter work precisely. On exhaustion it returns a *BudgetError and
// leaves the remaining events queued.
func (p *ParallelEngine) RunBudget(budget int) (float64, error) {
	for _, l := range p.lps {
		l.ran = 0
	}
	p.budgetErr = nil
	p.done = false
	if len(p.lps) == 1 {
		p.runSerial(budget)
	} else {
		p.runParallel(budget)
	}
	final := 0.0
	for _, l := range p.lps {
		if l.now > final {
			final = l.now
		}
	}
	if p.budgetErr != nil {
		return final, p.budgetErr
	}
	return final, nil
}

// runSerial is the single-LP degenerate case: no goroutines, no barriers
// (and hence no epochs in the profile — only event/send counts advance).
func (p *ParallelEngine) runSerial(budget int) {
	l := p.lps[0]
	n := 0
	for len(l.pq) > 0 {
		if budget > 0 && l.ran >= budget {
			p.budgetErr = &BudgetError{Budget: budget, Now: l.now, NextAt: l.pq[0].time, Pending: len(l.pq)}
			break
		}
		l.exec(l.pq.pop())
		n++
	}
	if n > 0 {
		l.prof.events.Add(int64(n))
	}
}

// exec advances the LP's clock to ev and runs it: the closure when it has
// one, otherwise the engine's handler on its tag.
func (l *LP) exec(ev event) {
	l.now = ev.time
	if ev.fn != nil {
		ev.fn()
	} else {
		l.eng.handler(l, ev.tag)
	}
	l.ran++
}

// runParallel drives the barrier-epoch loop: the calling goroutine runs LP 0
// (and the epoch bookkeeping), one worker goroutine per further LP.
func (p *ParallelEngine) runParallel(budget int) {
	n := len(p.lps)
	p.bar.reset(int32(n))
	// The first horizon is computed before the workers spawn; goroutine
	// creation publishes it to them.
	p.computeEpoch(budget)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		l := p.lps[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.lpLoop(l, budget, false)
		}()
	}
	p.lpLoop(p.lps[0], budget, true)
	wg.Wait()
}

// lpLoop is the per-LP epoch loop. All LPs observe the same done/horizon
// values because they are written only between the merge barrier and the
// publish barrier, so every LP exits on the same epoch.
func (p *ParallelEngine) lpLoop(l *LP, budget int, lead bool) {
	for !p.done {
		l.prof.epochs.Add(1)
		l.runEpoch(p.horizon, budget)
		p.barWait(l) // all LPs done executing; outboxes are stable
		l.mergeInbox()
		p.barWait(l) // all LPs merged; heaps are stable
		if lead {
			p.computeEpoch(budget)
		}
		p.barWait(l) // next horizon/done published
	}
}

// barWait crosses the epoch barrier, charging the wall-clock wait to the
// LP's profile when profiling is on. The host clock here measures the
// simulator's own synchronization cost; it never feeds back into virtual
// time, so profiled runs stay bit-identical.
func (p *ParallelEngine) barWait(l *LP) {
	if !p.profile {
		p.bar.wait()
		return
	}
	start := time.Now() //tofuvet:allow wallclock profiling measures real barrier-wait cost, not simulated time
	p.bar.wait()
	l.prof.barrierNs.Add(time.Since(start).Nanoseconds()) //tofuvet:allow wallclock profiling measures real barrier-wait cost, not simulated time
}

// runEpoch executes this LP's events strictly below the horizon.
func (l *LP) runEpoch(horizon float64, budget int) {
	n := 0
	for len(l.pq) > 0 && l.pq[0].time < horizon {
		if budget > 0 && l.ran >= budget {
			break
		}
		l.exec(l.pq.pop())
		n++
	}
	if n > 0 {
		l.prof.events.Add(int64(n))
	}
}

// mergeInbox moves every event staged for this LP into its heap. The heap's
// strict total order makes the result independent of merge order.
func (l *LP) mergeInbox() {
	for _, src := range l.eng.lps {
		box := src.out[l.id]
		if len(box) == 0 {
			continue
		}
		for i := range box {
			l.pq.push(box[i])
		}
		// Zero the drained slots so delivered closures are not retained by
		// the outbox backing array.
		clear(box)
		src.out[l.id] = box[:0]
	}
}

// computeEpoch publishes the next horizon, or done when drained or over
// budget. Called only by the lead LP while the others are parked at the
// publish barrier (or before the workers spawn).
func (p *ParallelEngine) computeEpoch(budget int) {
	minT, maxTop := math.Inf(1), math.Inf(-1)
	pending, ran := 0, 0
	for _, l := range p.lps {
		pending += len(l.pq)
		ran += l.ran
		if len(l.pq) > 0 {
			if l.pq[0].time < minT {
				minT = l.pq[0].time
			}
			if l.pq[0].time > maxTop {
				maxTop = l.pq[0].time
			}
		}
	}
	if pending == 0 {
		p.done = true
		return
	}
	if budget > 0 && ran >= budget {
		now := 0.0
		for _, l := range p.lps {
			if l.now > now {
				now = l.now
			}
		}
		p.budgetErr = &BudgetError{Budget: budget, Now: now, NextAt: minT, Pending: pending}
		p.done = true
		return
	}
	p.horizon = minT + p.lookahead
	p.epochs.Add(1)
	// Lookahead-limited: some LP has pending work whose earliest event
	// already lies at or beyond the horizon, so the window (not a lack of
	// events) idles it through this epoch.
	if maxTop >= p.horizon {
		p.laLimited.Add(1)
	}
}

// ID returns this LP's index.
func (l *LP) ID() int { return int(l.id) }

// Now returns this LP's local virtual time.
func (l *LP) Now() float64 { return l.now }

// Pending returns the number of events queued on this LP (excluding
// staged outbound events).
func (l *LP) Pending() int { return len(l.pq) }

// Schedule registers fn to run on this LP at virtual time t, clamping past
// times to Now exactly like Engine.Schedule.
func (l *LP) Schedule(t float64, fn func()) {
	if t < l.now {
		t = l.now
	}
	l.seq++
	l.pq.push(event{time: t, sendTime: l.now, src: l.id, seq: l.seq, fn: fn})
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
	l.pq.push(event{time: t, sendTime: l.now, src: l.id, tag: tag, seq: l.seq, fn: fn})
	return nil
}

// SendAt registers fn to run on LP dst at virtual time t. For dst == l this
// is ScheduleAt. For a different LP the conservative contract applies: t
// must be at least Now + the engine's lookahead, which is what lets the
// destination execute its current epoch without waiting for this send. The
// event is staged locally and merged into dst's queue at the next epoch
// barrier; the barrier-epoch invariant guarantees that is never too late.
func (l *LP) SendAt(dst *LP, t float64, fn func()) error {
	return l.sendAt(dst, t, 0, fn)
}

// SendTagAt is SendAt for a tagged event: the engine's handler runs with tag
// on LP dst at time t, under the same lookahead contract.
func (l *LP) SendTagAt(dst *LP, t float64, tag uint32) error {
	if l.eng.handler == nil {
		return fmt.Errorf("des: SendTagAt on an engine with no handler (SetHandler)")
	}
	return l.sendAt(dst, t, tag, nil)
}

func (l *LP) sendAt(dst *LP, t float64, tag uint32, fn func()) error {
	if dst.eng != l.eng {
		return fmt.Errorf("des: SendAt to an LP of a different engine")
	}
	if dst == l {
		l.prof.sends.Add(1)
		return l.scheduleAt(t, tag, fn)
	}
	if t < l.now+l.eng.lookahead {
		return fmt.Errorf("des: SendAt(%g) to LP %d violates lookahead %g from now %g",
			t, dst.id, l.eng.lookahead, l.now)
	}
	l.seq++
	l.prof.sends.Add(1)
	l.prof.staged.Add(1)
	l.out[dst.id] = append(l.out[dst.id], event{time: t, sendTime: l.now, src: l.id, tag: tag, seq: l.seq, fn: fn})
	return nil
}
