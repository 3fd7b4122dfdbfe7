package des

import (
	"math/rand"
	"testing"
)

// --- Queue-vs-Engine equivalence harness ------------------------------------
//
// The property the fabric relies on: the Queue executes its events in
// exactly the order (and at exactly the times) the reference Engine executes
// the same workload in. The harness schedules several randomly generated
// cascades, which interleave in virtual time, on a Queue and on an Engine,
// and compares each cascade's trace bit for bit.

type traceEntry struct {
	time float64
	id   int
}

// testSched is one cascade's scheduling surface: an Engine or a Queue.
type testSched interface {
	now() float64
	at(t float64, fn func()) error
}

type serialSched struct{ e *Engine }

func (s serialSched) now() float64                  { return s.e.Now() }
func (s serialSched) at(t float64, fn func()) error { return s.e.ScheduleAt(t, fn) }

// tagSched schedules closures on a Queue the way the fabric schedules its
// events, as tags run by the queue's one handler: each closure is parked in
// a table and scheduled under its index.
type tagSched struct {
	q   *Queue
	tab []func()
}

// newTagSched installs the table's handler on q.
func newTagSched(q *Queue) *tagSched {
	s := &tagSched{q: q}
	q.SetHandler(func(tag uint32) { s.tab[tag]() })
	return s
}

// park adds fn to the table and returns its tag.
func (s *tagSched) park(fn func()) uint32 {
	s.tab = append(s.tab, fn)
	return uint32(len(s.tab) - 1)
}

func (s *tagSched) now() float64                  { return s.q.Now() }
func (s *tagSched) at(t float64, fn func()) error { return s.q.ScheduleTagAt(t, s.park(fn)) }

// cascade schedules a deterministic pseudo-random event cascade on s and
// returns the trace its events append to as they run. All generator state
// (RNG stream, id counter, spawn budget) belongs to the cascade, so it
// expands identically on any engine that runs events in the same order,
// whatever other cascades share the engine.
func cascade(t *testing.T, s testSched, seed int64) *[]traceEntry {
	t.Helper()
	trace := new([]traceEntry)
	rng := rand.New(rand.NewSource(seed))
	ids, budget := 0, 80
	fail := func(err error) {
		if err != nil {
			t.Errorf("cascade scheduling failed: %v", err)
		}
	}
	var newEvent func() func()
	newEvent = func() func() {
		id := ids
		ids++
		return func() {
			*trace = append(*trace, traceEntry{s.now(), id})
			if budget <= 0 {
				return
			}
			roll := rng.Float64()
			if roll < 0.7 {
				budget--
				// Quantized deltas, including 0, to exercise same-time
				// tie-breaking.
				fail(s.at(s.now()+float64(rng.Intn(4))*0.25, newEvent()))
			}
			if roll < 0.4 {
				budget--
				fail(s.at(s.now()+0.3*(1+rng.Float64()), newEvent()))
			}
		}
	}
	for i := 0; i < 8; i++ {
		fail(s.at(float64(i%3)*0.5, newEvent()))
	}
	return trace
}

// cascadeSeed gives each cascade of a run its own workload.
func cascadeSeed(seed int64, c int) int64 { return seed + int64(c)*1_000_003 }

// checkAgainstEngine runs len(got) cascades on a reference Engine and
// compares cascade c's trace with got[c], the trace the Queue produced; it
// returns the Engine's final time.
func checkAgainstEngine(t *testing.T, seed int64, got []*[]traceEntry) float64 {
	t.Helper()
	var e Engine
	want := make([]*[]traceEntry, len(got))
	for c := range want {
		want[c] = cascade(t, serialSched{&e}, cascadeSeed(seed, c))
	}
	final := e.Run()
	for c := range want {
		g, w := *got[c], *want[c]
		if len(w) < 8 {
			t.Errorf("seed=%d cascade=%d: degenerated to %d events", seed, c, len(w))
		}
		if len(g) != len(w) {
			t.Fatalf("seed=%d cascade=%d: %d events on the Queue vs %d on the Engine", seed, c, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("seed=%d cascade=%d event %d: Queue %+v != Engine %+v", seed, c, i, g[i], w[i])
			}
		}
	}
	return final
}

func TestParallelMatchesSerialProperty(t *testing.T) {
	for _, n := range []int{1, 3, 5} {
		for seed := int64(1); seed <= 4; seed++ {
			q := NewQueue()
			s := newTagSched(q)
			traces := make([]*[]traceEntry, n)
			for c := range traces {
				traces[c] = cascade(t, s, cascadeSeed(seed, c))
			}
			qFinal := q.Run()
			if eFinal := checkAgainstEngine(t, seed, traces); qFinal != eFinal {
				t.Errorf("%d cascades seed=%d: final time Queue %g != Engine %g", n, seed, qFinal, eFinal)
			}
		}
	}
}

// The cascades of TestParallelMatchesSerialProperty at other cascade
// counts: the Queue executes every cascade in the order, and at the times,
// the reference Engine executes the closure form, and it runs each tag it
// was given exactly once.
func TestTaggedEventsMatchSerialProperty(t *testing.T) {
	for n := 1; n <= 4; n++ {
		for seed := int64(1); seed <= 4; seed++ {
			q := NewQueue()
			s := newTagSched(q)
			traces := make([]*[]traceEntry, n)
			for c := range traces {
				traces[c] = cascade(t, s, cascadeSeed(seed, c))
			}
			qFinal := q.Run()
			if eFinal := checkAgainstEngine(t, seed, traces); qFinal != eFinal {
				t.Errorf("%d cascades seed=%d: final time tagged %g != Engine %g", n, seed, qFinal, eFinal)
			}
			ran := 0
			for _, tr := range traces {
				ran += len(*tr)
			}
			if ran != len(s.tab) || ran < 8*n {
				t.Errorf("%d cascades seed=%d: %d events ran of %d tags scheduled", n, seed, ran, len(s.tab))
			}
		}
	}
}

// A tagged event needs a handler to run it; scheduling one on a queue
// without is refused instead of crashing the event loop later.
func TestTaggedEventNeedsHandler(t *testing.T) {
	q := NewQueue()
	if err := q.ScheduleTagAt(1, 7); err == nil {
		t.Error("ScheduleTagAt without a handler accepted")
	}
	var got []uint32
	q.SetHandler(func(tag uint32) { got = append(got, tag) })
	if err := q.ScheduleTagAt(2, 7); err != nil {
		t.Fatal(err)
	}
	if err := q.ScheduleTagAt(1, 9); err != nil {
		t.Fatal(err)
	}
	q.Run()
	if len(got) != 2 || got[0] != 9 || got[1] != 7 {
		t.Errorf("handler saw %v, want tags 9 then 7", got)
	}
}

func TestParallelSingleLPDegenerate(t *testing.T) {
	q := NewQueue()
	s := newTagSched(q)
	var order []float64
	for _, tm := range []float64{3, 1, 2} {
		tm := tm
		if err := s.at(tm, func() { order = append(order, tm) }); err != nil {
			t.Fatal(err)
		}
	}
	if final := q.Run(); final != 3 {
		t.Errorf("final = %g, want 3", final)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestParallelTieBreakBySchedulingOrderWithinLP(t *testing.T) {
	q := NewQueue()
	s := newTagSched(q)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if err := s.at(1.0, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	q.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestParallelScheduleAtRejectsPast(t *testing.T) {
	q := NewQueue()
	s := newTagSched(q)
	var errAt error
	past := s.park(func() { t.Error("past event ran") })
	if err := s.at(10, func() { errAt = q.ScheduleTagAt(5, past) }); err != nil {
		t.Fatal(err)
	}
	q.Run()
	if errAt == nil {
		t.Fatal("Queue.ScheduleTagAt(5) at now=10 returned nil error")
	}
}

func TestParallelReset(t *testing.T) {
	q := NewQueue()
	s := newTagSched(q)
	nop := s.park(func() {})
	for _, tm := range []float64{5, 7} {
		if err := q.ScheduleTagAt(tm, nop); err != nil {
			t.Fatal(err)
		}
	}
	if q.Pending() != 2 {
		t.Errorf("pending = %d, want 2", q.Pending())
	}
	q.Reset()
	if q.Pending() != 0 {
		t.Errorf("pending after Reset = %d", q.Pending())
	}
	if now := q.Now(); now != 0 {
		t.Errorf("clock after Reset = %g", now)
	}
	ran := false
	if err := s.at(1, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	q.Run()
	if !ran {
		t.Error("queue unusable after Reset")
	}
}

// A finite chain drains ahead of a zero-delay self-rescheduling cycle at
// t=5; the cycle stops within the budget, naming the stuck time, with its
// event still queued.
func TestParallelRunBudgetStopsLivelock(t *testing.T) {
	const budget, chain = 200, 5
	q := NewQueue()
	s := newTagSched(q)
	ticks, spins := 0, 0
	var tick, spin uint32
	at := func(tm float64, tag uint32) {
		if err := q.ScheduleTagAt(tm, tag); err != nil {
			t.Error(err)
		}
	}
	tick = s.park(func() {
		ticks++
		if ticks < chain {
			at(q.Now()+1, tick)
		}
	})
	spin = s.park(func() { spins++; at(q.Now(), spin) })
	at(0, tick)
	at(5, spin)
	_, runErr := q.RunBudget(budget)
	if runErr == nil {
		t.Fatal("RunBudget returned nil on a scheduling cycle")
	}
	be, ok := runErr.(*BudgetError)
	if !ok {
		t.Fatalf("error type = %T, want *BudgetError", runErr)
	}
	if be.NextAt != 5 || be.Now != 5 {
		t.Errorf("BudgetError names now=%g next=%g, want the stuck time 5", be.Now, be.NextAt)
	}
	if ticks != chain || ticks+spins != budget {
		t.Errorf("ran %d chain and %d cycle events, want %d and %d", ticks, spins, chain, budget-chain)
	}
	if q.Pending() == 0 || be.Pending != q.Pending() {
		t.Errorf("queue holds %d events, error reports %d pending", q.Pending(), be.Pending)
	}
}
