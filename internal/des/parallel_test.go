package des

import (
	"math/rand"
	"testing"
)

// --- serial-vs-parallel equivalence harness ------------------------------
//
// The property the fabric relies on: for the same event graph, every LP of
// the parallel engine executes its events in exactly the order (and at
// exactly the times) the serial engine would execute that LP's events in.
// The harness runs one randomly generated workload on both engines through
// a common scheduling interface and compares the per-LP execution traces
// bit for bit.

type traceEntry struct {
	lp   int
	time float64
	id   int
}

// testSched abstracts the two engines behind one scheduling surface.
type testSched interface {
	now(lp int) float64
	at(lp int, t float64, fn func()) error
	send(from, to int, t float64, fn func()) error
	run() float64
}

type serialSched struct{ e Engine }

func (s *serialSched) now(int) float64                           { return s.e.Now() }
func (s *serialSched) at(_ int, t float64, fn func()) error      { return s.e.ScheduleAt(t, fn) }
func (s *serialSched) send(_, _ int, t float64, fn func()) error { return s.e.ScheduleAt(t, fn) }
func (s *serialSched) run() float64                              { return s.e.Run() }

type parSched struct{ p *ParallelEngine }

func (s *parSched) now(lp int) float64 { return s.p.LP(lp).Now() }
func (s *parSched) at(lp int, t float64, fn func()) error {
	return s.p.LP(lp).ScheduleAt(t, fn)
}
func (s *parSched) send(from, to int, t float64, fn func()) error {
	return s.p.LP(from).SendAt(s.p.LP(to), t, fn)
}
func (s *parSched) run() float64 { return s.p.Run() }

// runWorkload expands a deterministic pseudo-random event graph on s and
// returns the per-LP execution traces. All mutable generator state (RNG
// stream, id counter, spawn budget) is per-LP and only touched by events
// executing on that LP, so the expansion is identical on both engines and
// race-free on the parallel one. Cross-LP send times carry a random factor
// in [1,2) of the lookahead so arrival times never tie exactly with events
// from other LPs (exact cross-LP time ties are outside the determinism
// contract; the fabric's link latencies never produce them either).
func runWorkload(t *testing.T, s testSched, lps int, lookahead float64, seed int64) ([][]traceEntry, float64) {
	t.Helper()
	traces := make([][]traceEntry, lps)
	rngs := make([]*rand.Rand, lps)
	counters := make([]int, lps)
	budget := make([]int, lps)

	fail := func(err error) {
		if err != nil {
			t.Errorf("workload scheduling failed: %v", err)
		}
	}
	// newEvent mints an event created by srcLP (consuming srcLP's id
	// counter) that will execute on execLP (consuming execLP's RNG and
	// budget when it runs).
	var newEvent func(srcLP, execLP int) func()
	newEvent = func(srcLP, execLP int) func() {
		id := srcLP*1_000_000 + counters[srcLP]
		counters[srcLP]++
		return func() {
			traces[execLP] = append(traces[execLP], traceEntry{execLP, s.now(execLP), id})
			if budget[execLP] <= 0 {
				return
			}
			r := rngs[execLP]
			roll := r.Float64()
			if roll < 0.7 {
				budget[execLP]--
				// Quantized deltas, including 0, to exercise same-LP
				// same-time tie-breaking.
				delta := float64(r.Intn(4)) * 0.25
				fail(s.at(execLP, s.now(execLP)+delta, newEvent(execLP, execLP)))
			}
			if roll < 0.4 && lps > 1 {
				budget[execLP]--
				to := r.Intn(lps - 1)
				if to >= execLP {
					to++
				}
				at := s.now(execLP) + lookahead*(1+r.Float64())
				fail(s.send(execLP, to, at, newEvent(execLP, to)))
			}
		}
	}
	for lp := 0; lp < lps; lp++ {
		rngs[lp] = rand.New(rand.NewSource(seed + int64(lp)*1_000_003))
		budget[lp] = 80
		for i := 0; i < 8; i++ {
			fail(s.at(lp, float64(i%3)*0.5, newEvent(lp, lp)))
		}
	}
	return traces, s.run()
}

func TestParallelMatchesSerialProperty(t *testing.T) {
	const lookahead = 0.3
	for _, lps := range []int{2, 3, 5} {
		for seed := int64(1); seed <= 4; seed++ {
			ser, serFinal := runWorkload(t, &serialSched{}, lps, lookahead, seed)
			par, err := NewParallel(lps, lookahead)
			if err != nil {
				t.Fatal(err)
			}
			pr, parFinal := runWorkload(t, &parSched{p: par}, lps, lookahead, seed)
			if parFinal != serFinal {
				t.Errorf("lps=%d seed=%d: final time parallel %g != serial %g", lps, seed, parFinal, serFinal)
			}
			crossed, total := 0, 0
			for lp := 0; lp < lps; lp++ {
				if len(pr[lp]) != len(ser[lp]) {
					t.Fatalf("lps=%d seed=%d lp=%d: %d events parallel vs %d serial",
						lps, seed, lp, len(pr[lp]), len(ser[lp]))
				}
				total += len(ser[lp])
				for i := range ser[lp] {
					if pr[lp][i] != ser[lp][i] {
						t.Fatalf("lps=%d seed=%d lp=%d event %d: parallel %+v != serial %+v",
							lps, seed, lp, i, pr[lp][i], ser[lp][i])
					}
					if pr[lp][i].id/1_000_000 != lp {
						crossed++
					}
				}
			}
			if total < 8*lps {
				t.Errorf("lps=%d seed=%d: workload degenerated to %d events", lps, seed, total)
			}
			if crossed == 0 {
				t.Errorf("lps=%d seed=%d: no cross-LP events exercised", lps, seed)
			}
		}
	}
}

// tagSched drives a ParallelEngine the way the fabric does — tagged events
// executed by one registered handler — mixed with closure events: every
// other event of an LP goes through ScheduleTagAt/SendTagAt, its closure
// parked in a table the tag indexes. Tables are fixed-size and per
// scheduling LP, so a slot is written by its LP before the event is sent and
// read by the executing LP after the epoch barrier, never concurrently.
type tagSched struct {
	p   *ParallelEngine
	tab [][]func()
	n   []int
}

func newTagSched(p *ParallelEngine) *tagSched {
	s := &tagSched{p: p, tab: make([][]func(), p.LPs()), n: make([]int, p.LPs())}
	for i := range s.tab {
		s.tab[i] = make([]func(), 1<<12)
	}
	p.SetHandler(func(_ *LP, tag uint32) { s.tab[tag>>12][tag&(1<<12-1)]() })
	return s
}

// park stores fn in from's table and returns its tag; ok is false on the
// turns that stay closure events.
func (s *tagSched) park(from int, fn func()) (tag uint32, ok bool) {
	i := s.n[from]
	s.n[from]++
	if i%2 == 1 {
		return 0, false
	}
	s.tab[from][i] = fn
	return uint32(from)<<12 | uint32(i), true
}

func (s *tagSched) now(lp int) float64 { return s.p.LP(lp).Now() }
func (s *tagSched) at(lp int, t float64, fn func()) error {
	if tag, ok := s.park(lp, fn); ok {
		return s.p.LP(lp).ScheduleTagAt(t, tag)
	}
	return s.p.LP(lp).ScheduleAt(t, fn)
}
func (s *tagSched) send(from, to int, t float64, fn func()) error {
	if tag, ok := s.park(from, fn); ok {
		return s.p.LP(from).SendTagAt(s.p.LP(to), t, tag)
	}
	return s.p.LP(from).SendAt(s.p.LP(to), t, fn)
}
func (s *tagSched) run() float64 { return s.p.Run() }

// The cascade of TestParallelMatchesSerialProperty expressed as tagged
// events mixed with closure events: at 1 to 4 LPs every LP executes it in
// the order, and at the times, the reference Engine executes the closure
// form.
func TestTaggedEventsMatchSerialProperty(t *testing.T) {
	const lookahead = 0.3
	for lps := 1; lps <= 4; lps++ {
		for seed := int64(1); seed <= 4; seed++ {
			ser, serFinal := runWorkload(t, &serialSched{}, lps, lookahead, seed)
			par, err := NewParallel(lps, lookahead)
			if err != nil {
				t.Fatal(err)
			}
			ts := newTagSched(par)
			pr, parFinal := runWorkload(t, ts, lps, lookahead, seed)
			if parFinal != serFinal {
				t.Errorf("lps=%d seed=%d: final time tagged %g != serial %g", lps, seed, parFinal, serFinal)
			}
			for lp := 0; lp < lps; lp++ {
				if len(pr[lp]) != len(ser[lp]) {
					t.Fatalf("lps=%d seed=%d lp=%d: %d events tagged vs %d serial",
						lps, seed, lp, len(pr[lp]), len(ser[lp]))
				}
				for i := range ser[lp] {
					if pr[lp][i] != ser[lp][i] {
						t.Fatalf("lps=%d seed=%d lp=%d event %d: tagged %+v != serial %+v",
							lps, seed, lp, i, pr[lp][i], ser[lp][i])
					}
				}
				if ts.n[lp] < 8 {
					t.Errorf("lps=%d seed=%d lp=%d: only %d events scheduled", lps, seed, lp, ts.n[lp])
				}
			}
		}
	}
}

// A tagged event needs a handler to run it; scheduling one on an engine
// without is refused instead of crashing the event loop later.
func TestTaggedEventNeedsHandler(t *testing.T) {
	p, err := NewParallel(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LP(0).ScheduleTagAt(1, 7); err == nil {
		t.Error("ScheduleTagAt without a handler accepted")
	}
	if err := p.LP(0).SendTagAt(p.LP(1), 1, 7); err == nil {
		t.Error("SendTagAt without a handler accepted")
	}
	got := make([][]uint32, 2) // per executing LP
	p.SetHandler(func(l *LP, tag uint32) { got[l.ID()] = append(got[l.ID()], tag) })
	if err := p.LP(0).ScheduleTagAt(2, 7); err != nil {
		t.Fatal(err)
	}
	if err := p.LP(0).SendTagAt(p.LP(1), 1, 9); err != nil {
		t.Fatal(err)
	}
	if err := p.LP(0).SendTagAt(p.LP(1), 0.5, 9); err == nil {
		t.Error("SendTagAt inside the lookahead window accepted")
	}
	p.Run()
	if len(got[0]) != 1 || got[0][0] != 7 || len(got[1]) != 1 || got[1][0] != 9 {
		t.Errorf("handler saw %v, want tag 7 on LP 0 and tag 9 on LP 1", got)
	}
}

func TestParallelSingleLPDegenerate(t *testing.T) {
	p, err := NewParallel(1, 0)
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
	if _, err := NewParallel(0, 1); err == nil {
		t.Error("NewParallel(0) accepted")
	}
	if _, err := NewParallel(2, 0); err == nil {
		t.Error("NewParallel(2, lookahead=0) accepted")
	}
	if _, err := NewParallel(2, -1); err == nil {
		t.Error("NewParallel(2, lookahead<0) accepted")
	}
}

func TestParallelTieBreakBySchedulingOrderWithinLP(t *testing.T) {
	p, err := NewParallel(2, 1)
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
	p, err := NewParallel(2, 1)
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

func TestParallelSendAtEnforcesLookahead(t *testing.T) {
	p, err := NewParallel(2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Below the lookahead window: rejected.
	if err := p.LP(0).SendAt(p.LP(1), 0.5, func() {}); err == nil {
		t.Error("SendAt inside the lookahead window accepted")
	}
	// Exactly at the window: accepted.
	ran := false
	if err := p.LP(0).SendAt(p.LP(1), 1.0, func() { ran = true }); err != nil {
		t.Errorf("SendAt at exactly now+lookahead rejected: %v", err)
	}
	// Same-LP sends are local and exempt from the window.
	if err := p.LP(0).SendAt(p.LP(0), 0.1, func() {}); err != nil {
		t.Errorf("same-LP SendAt rejected: %v", err)
	}
	p.Run()
	if !ran {
		t.Error("accepted cross-LP event never ran")
	}

	other, _ := NewParallel(2, 1.0)
	if err := p.LP(0).SendAt(other.LP(1), 5, func() {}); err == nil {
		t.Error("SendAt to an LP of a different engine accepted")
	}
}

func TestParallelCascadeAcrossLPs(t *testing.T) {
	p, err := NewParallel(2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	var bounce func(on int) func()
	bounce = func(on int) func() {
		return func() {
			count++
			if count < 50 {
				src, dst := p.LP(on), p.LP(1-on)
				if err := src.SendAt(dst, src.Now()+1, bounce(1-on)); err != nil {
					t.Error(err)
				}
			}
		}
	}
	p.LP(0).Schedule(0, bounce(0))
	final := p.Run()
	if count != 50 {
		t.Errorf("count = %d, want 50", count)
	}
	if final != 49 {
		t.Errorf("final = %g, want 49", final)
	}
}

func TestParallelReset(t *testing.T) {
	p, err := NewParallel(2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	p.LP(0).Schedule(5, func() {})
	if err := p.LP(1).SendAt(p.LP(0), 7, func() {}); err != nil {
		t.Fatal(err)
	}
	if p.Pending() != 2 {
		t.Errorf("pending = %d, want 2 (one queued, one staged)", p.Pending())
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

func TestParallelRunBudgetStopsLivelock(t *testing.T) {
	p, err := NewParallel(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	l := p.LP(0)
	var tick func()
	tick = func() { l.Schedule(l.Now(), tick) }
	l.Schedule(5, tick)
	p.LP(1).Schedule(1, func() {})
	_, runErr := p.RunBudget(200)
	if runErr == nil {
		t.Fatal("RunBudget returned nil on a scheduling cycle")
	}
	be, ok := runErr.(*BudgetError)
	if !ok {
		t.Fatalf("error type = %T, want *BudgetError", runErr)
	}
	if be.NextAt != 5 {
		t.Errorf("BudgetError names t=%g, want the stuck time 5", be.NextAt)
	}
	if p.Pending() == 0 {
		t.Error("cycle's events discarded instead of left queued")
	}
}
