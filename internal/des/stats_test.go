package des

import (
	"sync"
	"sync/atomic"
	"testing"
)

// cascadeGraph seeds every LP with a chain of depth+1 events, each
// scheduling the next on its own LP, and returns the expected total event
// count.
func cascadeGraph(t *testing.T, p *ParallelEngine, depth int) int {
	t.Helper()
	var chain func(l *LP, level int) func()
	chain = func(l *LP, level int) func() {
		return func() {
			if level >= depth {
				return
			}
			if err := l.ScheduleAt(l.Now()+1e-6, chain(l, level+1)); err != nil {
				t.Errorf("ScheduleAt: %v", err)
			}
		}
	}
	for i := 0; i < p.LPs(); i++ {
		l := p.LP(i)
		if err := l.ScheduleAt(float64(i)*1e-9, chain(l, 0)); err != nil {
			t.Fatalf("ScheduleAt: %v", err)
		}
	}
	return p.LPs() * (depth + 1) // the seed plus depth chained events per LP
}

// TestStatsCountsEventsAndSends pins the counting semantics: every executed
// event is counted, on the LP that executed it.
func TestStatsCountsEventsAndSends(t *testing.T) {
	const depth = 16
	for _, lps := range []int{1, 2, 4, 8} {
		p, err := NewParallel(lps)
		if err != nil {
			t.Fatal(err)
		}
		want := cascadeGraph(t, p, depth)
		p.Run()
		st := p.Stats()
		if got := st.TotalEvents(); got != int64(want) {
			t.Errorf("%d LPs: TotalEvents = %d, want %d", lps, got, want)
		}
		if len(st.LPs) != lps {
			t.Fatalf("%d LPs: %d stats rows", lps, len(st.LPs))
		}
		for i, lp := range st.LPs {
			if lp.LP != i || lp.Events != depth+1 {
				t.Errorf("%d LPs: row %d = %+v, want LP %d with %d events", lps, i, lp, i, depth+1)
			}
		}
	}
}

// TestStatsTotalsInvariantAcrossLPCounts is the partition-invariance
// property: the same workload spread over 1/2/4/8 LPs reports identical
// TotalEvents.
func TestStatsTotalsInvariantAcrossLPCounts(t *testing.T) {
	totals := map[int]int64{}
	for _, lps := range []int{1, 2, 4, 8} {
		p, err := NewParallel(lps)
		if err != nil {
			t.Fatal(err)
		}
		// One chain per virtual "site", sites mapped onto the available LPs,
		// so the workload is identical regardless of the LP count.
		const sites, depth = 8, 12
		var chain func(l *LP, level int) func()
		chain = func(l *LP, level int) func() {
			return func() {
				if level < depth {
					l.Schedule(l.Now()+1e-6, chain(l, level+1))
				}
			}
		}
		for s := 0; s < sites; s++ {
			l := p.LP(s % lps)
			if err := l.ScheduleAt(float64(s)*1e-9, chain(l, 0)); err != nil {
				t.Fatal(err)
			}
		}
		p.Run()
		totals[lps] = p.Stats().TotalEvents()
	}
	for _, lps := range []int{2, 4, 8} {
		if totals[lps] != totals[1] {
			t.Errorf("%d LPs: TotalEvents = %d, want %d (1 LP)", lps, totals[lps], totals[1])
		}
	}
}

// TestStatsProfilingDoesNotChangeResults polls Stats from another goroutine
// throughout a 4-LP run and demands the final virtual time and counts of an
// unobserved run: reading the profile mid-run is race-free (checked under
// -race) and changes nothing.
func TestStatsProfilingDoesNotChangeResults(t *testing.T) {
	run := func(poll bool) (float64, int64) {
		p, err := NewParallel(4)
		if err != nil {
			t.Fatal(err)
		}
		want := cascadeGraph(t, p, 2000)
		var stop atomic.Bool
		var wg sync.WaitGroup
		if poll {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var last int64
				for !stop.Load() {
					n := p.Stats().TotalEvents()
					if n < last || n > int64(want) {
						t.Errorf("mid-run TotalEvents %d after %d, want monotone up to %d", n, last, want)
					}
					last = n
				}
			}()
		}
		final := p.Run()
		stop.Store(true)
		wg.Wait()
		return final, p.Stats().TotalEvents()
	}
	plainT, plainN := run(false)
	polledT, polledN := run(true)
	if plainT != polledT {
		t.Errorf("polled final time %v != unpolled %v", polledT, plainT)
	}
	if plainN != polledN {
		t.Errorf("polled event count %d != unpolled %d", polledN, plainN)
	}
}

// TestStatsAccumulateAcrossResets: Reset clears queues but not the profile;
// ResetStats clears the profile.
func TestStatsAccumulateAcrossResets(t *testing.T) {
	p, err := NewParallel(2)
	if err != nil {
		t.Fatal(err)
	}
	cascadeGraph(t, p, 8)
	p.Run()
	first := p.Stats().TotalEvents()
	if first == 0 {
		t.Fatal("no events recorded")
	}
	p.Reset()
	cascadeGraph(t, p, 8)
	p.Run()
	if got := p.Stats().TotalEvents(); got != 2*first {
		t.Errorf("after Reset + rerun: TotalEvents = %d, want %d (accumulating)", got, 2*first)
	}
	p.ResetStats()
	if st := p.Stats(); st.TotalEvents() != 0 {
		t.Errorf("ResetStats left nonzero profile: %+v", st)
	}
}
