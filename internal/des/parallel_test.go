package des

import (
	"math/rand"
	"testing"
)

// --- per-LP equivalence harness --------------------------------------------
//
// The property the fabric relies on: every LP of the parallel engine executes
// its events in exactly the order (and at exactly the times) the serial
// Engine executes the same workload in, however many other LPs the engine
// drains beside it. The harness gives each LP its own randomly generated
// cascade, runs all of them in one run of the parallel engine, runs each
// alone on a reference Engine, and compares the traces bit for bit.

type traceEntry struct {
	time float64
	id   int
}

// testSched is one cascade's scheduling surface: a reference Engine or one LP.
type testSched interface {
	now() float64
	at(t float64, fn func()) error
}

type serialSched struct{ e *Engine }

func (s serialSched) now() float64                  { return s.e.Now() }
func (s serialSched) at(t float64, fn func()) error { return s.e.ScheduleAt(t, fn) }

type lpSched struct{ l *LP }

func (s lpSched) now() float64                  { return s.l.Now() }
func (s lpSched) at(t float64, fn func()) error { return s.l.ScheduleAt(t, fn) }

// cascade schedules a deterministic pseudo-random event cascade on s and
// returns the trace its events append to as they run. All generator state
// (RNG stream, id counter, spawn budget) belongs to the cascade and its
// events schedule only on s, so it expands identically on the reference
// Engine and on an LP drained beside others.
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

// cascadeSeed gives each LP of a run its own workload.
func cascadeSeed(seed int64, lp int) int64 { return seed + int64(lp)*1_000_003 }

// checkAgainstEngine runs LP lp's cascade alone on a reference Engine and
// compares it with got, the trace the LP produced; it returns the Engine's
// final time.
func checkAgainstEngine(t *testing.T, lps, lp int, seed int64, got []traceEntry) float64 {
	t.Helper()
	var e Engine
	want := cascade(t, serialSched{&e}, cascadeSeed(seed, lp))
	final := e.Run()
	if len(*want) < 8 {
		t.Errorf("lps=%d seed=%d lp=%d: cascade degenerated to %d events", lps, seed, lp, len(*want))
	}
	if len(got) != len(*want) {
		t.Fatalf("lps=%d seed=%d lp=%d: %d events parallel vs %d serial", lps, seed, lp, len(got), len(*want))
	}
	for i := range got {
		if got[i] != (*want)[i] {
			t.Fatalf("lps=%d seed=%d lp=%d event %d: parallel %+v != serial %+v", lps, seed, lp, i, got[i], (*want)[i])
		}
	}
	return final
}

func TestParallelMatchesSerialProperty(t *testing.T) {
	for _, lps := range []int{2, 3, 5} {
		for seed := int64(1); seed <= 4; seed++ {
			par, err := NewParallel(lps)
			if err != nil {
				t.Fatal(err)
			}
			traces := make([]*[]traceEntry, lps)
			for lp := range traces {
				traces[lp] = cascade(t, lpSched{par.LP(lp)}, cascadeSeed(seed, lp))
			}
			parFinal := par.Run()
			serFinal := 0.0
			for lp, tr := range traces {
				serFinal = max(serFinal, checkAgainstEngine(t, lps, lp, seed, *tr))
			}
			if parFinal != serFinal {
				t.Errorf("lps=%d seed=%d: final time parallel %g != serial %g", lps, seed, parFinal, serFinal)
			}
		}
	}
}

// tagSched schedules one LP's cascade the way the fabric does — tagged
// events run by the engine's one handler — mixed with closure events: every
// other event parks its closure in the LP's own table under the tag it is
// scheduled with. Only that LP's events touch the table.
type tagSched struct {
	l   *LP
	n   int
	tab []func()
}

func (s *tagSched) now() float64 { return s.l.Now() }
func (s *tagSched) at(t float64, fn func()) error {
	s.n++
	if s.n%2 == 0 {
		return s.l.ScheduleAt(t, fn)
	}
	s.tab = append(s.tab, fn)
	return s.l.ScheduleTagAt(t, uint32(len(s.tab)-1))
}

// The cascades of TestParallelMatchesSerialProperty expressed as tagged
// events mixed with closure events: at 1 to 4 LPs every LP executes its
// cascade in the order, and at the times, the reference Engine executes the
// closure form, and the handler sees each tag on the LP it was scheduled on.
func TestTaggedEventsMatchSerialProperty(t *testing.T) {
	for lps := 1; lps <= 4; lps++ {
		for seed := int64(1); seed <= 4; seed++ {
			par, err := NewParallel(lps)
			if err != nil {
				t.Fatal(err)
			}
			scheds := make([]*tagSched, lps)
			par.SetHandler(func(l *LP, tag uint32) { scheds[l.ID()].tab[tag]() })
			traces := make([]*[]traceEntry, lps)
			for lp := range traces {
				scheds[lp] = &tagSched{l: par.LP(lp)}
				traces[lp] = cascade(t, scheds[lp], cascadeSeed(seed, lp))
			}
			parFinal := par.Run()
			serFinal := 0.0
			for lp, tr := range traces {
				serFinal = max(serFinal, checkAgainstEngine(t, lps, lp, seed, *tr))
				if len(scheds[lp].tab) < 4 {
					t.Errorf("lps=%d seed=%d lp=%d: only %d tagged events scheduled", lps, seed, lp, len(scheds[lp].tab))
				}
			}
			if parFinal != serFinal {
				t.Errorf("lps=%d seed=%d: final time tagged %g != serial %g", lps, seed, parFinal, serFinal)
			}
		}
	}
}

// A tagged event needs a handler to run it; scheduling one on an engine
// without is refused instead of crashing the event loop later.
func TestTaggedEventNeedsHandler(t *testing.T) {
	p, err := NewParallel(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LP(0).ScheduleTagAt(1, 7); err == nil {
		t.Error("ScheduleTagAt without a handler accepted")
	}
	got := make([][]uint32, 2) // per executing LP
	p.SetHandler(func(l *LP, tag uint32) { got[l.ID()] = append(got[l.ID()], tag) })
	if err := p.LP(0).ScheduleTagAt(2, 7); err != nil {
		t.Fatal(err)
	}
	if err := p.LP(1).ScheduleTagAt(1, 9); err != nil {
		t.Fatal(err)
	}
	p.Run()
	if len(got[0]) != 1 || got[0][0] != 7 || len(got[1]) != 1 || got[1][0] != 9 {
		t.Errorf("handler saw %v, want tag 7 on LP 0 and tag 9 on LP 1", got)
	}
}

func TestParallelSingleLPDegenerate(t *testing.T) {
	p, err := NewParallel(1)
	if err != nil {
		t.Fatal(err)
	}
	var order []float64
	for _, tm := range []float64{3, 1, 2} {
		tm := tm
		p.LP(0).Schedule(tm, func() { order = append(order, tm) })
	}
	if final := p.Run(); final != 3 {
		t.Errorf("final = %g, want 3", final)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestNewParallelValidation(t *testing.T) {
	for _, lps := range []int{0, -1} {
		if _, err := NewParallel(lps); err == nil {
			t.Errorf("NewParallel(%d) accepted", lps)
		}
	}
	for _, lps := range []int{1, 2} {
		p, err := NewParallel(lps)
		if err != nil {
			t.Fatalf("NewParallel(%d): %v", lps, err)
		}
		if p.LPs() != lps {
			t.Errorf("NewParallel(%d) has %d LPs", lps, p.LPs())
		}
	}
}

func TestParallelTieBreakBySchedulingOrderWithinLP(t *testing.T) {
	p, err := NewParallel(2)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		p.LP(1).Schedule(1.0, func() { order = append(order, i) })
	}
	p.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestParallelScheduleAtRejectsPast(t *testing.T) {
	p, err := NewParallel(2)
	if err != nil {
		t.Fatal(err)
	}
	l := p.LP(0)
	var errAt error
	l.Schedule(10, func() {
		errAt = l.ScheduleAt(5, func() { t.Error("past event ran") })
	})
	p.Run()
	if errAt == nil {
		t.Fatal("LP.ScheduleAt(5) at now=10 returned nil error")
	}
}

// Every LP runs its own 50-event chain at its own pace, independently of
// the others; each ends at its own clock and the run at the latest.
func TestParallelCascadeAcrossLPs(t *testing.T) {
	const lps, chain = 4, 50
	p, err := NewParallel(lps)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, lps)
	for i := 0; i < lps; i++ {
		l, step := p.LP(i), float64(i+1)
		var tick func()
		tick = func() {
			counts[i]++
			if counts[i] < chain {
				if err := l.ScheduleAt(l.Now()+step, tick); err != nil {
					t.Error(err)
				}
			}
		}
		l.Schedule(0, tick)
	}
	if final := p.Run(); final != (chain-1)*lps {
		t.Errorf("final = %g, want %d", final, (chain-1)*lps)
	}
	for i, n := range counts {
		if n != chain {
			t.Errorf("LP %d ran %d events, want %d", i, n, chain)
		}
		if now, want := p.LP(i).Now(), float64((chain-1)*(i+1)); now != want {
			t.Errorf("LP %d clock = %g, want %g", i, now, want)
		}
	}
}

func TestParallelReset(t *testing.T) {
	p, err := NewParallel(2)
	if err != nil {
		t.Fatal(err)
	}
	p.LP(0).Schedule(5, func() {})
	p.LP(1).Schedule(7, func() {})
	if p.Pending() != 2 {
		t.Errorf("pending = %d, want 2", p.Pending())
	}
	p.Reset()
	if p.Pending() != 0 {
		t.Errorf("pending after Reset = %d", p.Pending())
	}
	for i := 0; i < 2; i++ {
		if now := p.LP(i).Now(); now != 0 {
			t.Errorf("LP %d clock after Reset = %g", i, now)
		}
	}
	ran := false
	p.LP(1).Schedule(1, func() { ran = true })
	p.Run()
	if !ran {
		t.Error("engine unusable after Reset")
	}
}

// The budget is per LP: on a 4-LP engine where LP 2 is stuck in a zero-delay
// self-rescheduling cycle, LP 2 stops within its budget naming the stuck
// time while the other three drain their finite cascades completely.
func TestParallelRunBudgetStopsLivelock(t *testing.T) {
	const lps, stuck, budget, chain = 4, 2, 200, 150
	p, err := NewParallel(lps)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, lps)
	for i := 0; i < lps; i++ {
		l := p.LP(i)
		var tick func()
		if i == stuck {
			tick = func() { counts[i]++; l.Schedule(l.Now(), tick) }
			l.Schedule(5, tick)
			continue
		}
		tick = func() {
			counts[i]++
			if counts[i] < chain {
				l.Schedule(l.Now()+1, tick)
			}
		}
		l.Schedule(0, tick)
	}
	_, runErr := p.RunBudget(budget)
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
	if counts[stuck] > budget {
		t.Errorf("stuck LP ran %d events, beyond its budget %d", counts[stuck], budget)
	}
	if p.LP(stuck).Pending() == 0 || be.Pending != p.Pending() {
		t.Errorf("stuck LP holds %d events, error reports %d pending of %d", p.LP(stuck).Pending(), be.Pending, p.Pending())
	}
	for i := 0; i < lps; i++ {
		if i == stuck {
			continue
		}
		if counts[i] != chain || p.LP(i).Pending() != 0 || p.LP(i).Now() != chain-1 {
			t.Errorf("LP %d: ran %d of %d events, %d pending, clock %g: did not drain",
				i, counts[i], chain, p.LP(i).Pending(), p.LP(i).Now())
		}
	}
}
