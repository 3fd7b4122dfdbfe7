package des

import (
	"math"
	"testing"
)

// cascadeGraph schedules a deterministic event cascade across nLPs: a seed
// event per LP that repeatedly does local work and sends to the next LP
// (round-robin) at now+lookahead, depth levels deep. Returns the expected
// total event count.
func cascadeGraph(t *testing.T, p *ParallelEngine, depth int) int {
	t.Helper()
	n := p.LPs()
	total := 0
	var chain func(l *LP, level int) func()
	chain = func(l *LP, level int) func() {
		return func() {
			if level >= depth {
				return
			}
			dst := p.LP((l.ID() + 1) % n)
			if err := l.SendAt(dst, l.Now()+p.Lookahead(), chain(dst, level+1)); err != nil {
				t.Errorf("SendAt: %v", err)
			}
		}
	}
	for i := 0; i < n; i++ {
		l := p.LP(i)
		if err := l.ScheduleAt(float64(i)*1e-9, chain(l, 0)); err != nil {
			t.Fatalf("ScheduleAt: %v", err)
		}
		total += depth + 1 // the seed plus depth chained events
	}
	return total
}

// TestStatsCountsEventsAndSends pins the counting semantics: every executed
// event is counted, every SendAt delivery is a send, and only cross-LP
// sends are staged.
func TestStatsCountsEventsAndSends(t *testing.T) {
	const depth = 16
	for _, lps := range []int{1, 2, 4, 8} {
		p, err := NewParallel(lps, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		want := cascadeGraph(t, p, depth)
		p.Run()
		st := p.Stats()
		if got := st.TotalEvents(); got != int64(want) {
			t.Errorf("%d LPs: TotalEvents = %d, want %d", lps, got, want)
		}
		wantSends := int64(lps * depth)
		if got := st.TotalSends(); got != wantSends {
			t.Errorf("%d LPs: TotalSends = %d, want %d", lps, got, wantSends)
		}
		if lps == 1 {
			if got := st.TotalStaged(); got != 0 {
				t.Errorf("1 LP: TotalStaged = %d, want 0 (self-sends are not staged)", got)
			}
		} else {
			// Every send in the cascade targets the next LP, so all of them
			// cross.
			if got := st.TotalStaged(); got != wantSends {
				t.Errorf("%d LPs: TotalStaged = %d, want %d", lps, got, wantSends)
			}
			if st.Epochs == 0 {
				t.Errorf("%d LPs: no epochs recorded", lps)
			}
			for _, lp := range st.LPs {
				if lp.Epochs == 0 {
					t.Errorf("%d LPs: LP %d participated in no epochs", lps, lp.LP)
				}
			}
		}
		if st.LookaheadLimited > st.Epochs {
			t.Errorf("%d LPs: LookaheadLimited %d > Epochs %d", lps, st.LookaheadLimited, st.Epochs)
		}
	}
}

// TestStatsTotalsInvariantAcrossLPCounts is the partition-invariance
// property: the same event graph run on 1/2/4/8 LPs reports identical
// TotalEvents and TotalSends (Staged naturally varies).
func TestStatsTotalsInvariantAcrossLPCounts(t *testing.T) {
	totals := map[int][2]int64{}
	for _, lps := range []int{1, 2, 4, 8} {
		p, err := NewParallel(lps, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		// Build the graph over 8 virtual "sites" mapped onto the available
		// LPs so the workload is identical regardless of the LP count.
		const sites, depth = 8, 12
		var chain func(site, level int) func()
		chain = func(site, level int) func() {
			l := p.LP(site % lps)
			return func() {
				if level >= depth {
					return
				}
				next := (site + 1) % sites
				dst := p.LP(next % lps)
				if err := l.SendAt(dst, l.Now()+p.Lookahead(), chain(next, level+1)); err != nil {
					t.Errorf("SendAt: %v", err)
				}
			}
		}
		for s := 0; s < sites; s++ {
			if err := p.LP(s%lps).ScheduleAt(float64(s)*1e-9, chain(s, 0)); err != nil {
				t.Fatal(err)
			}
		}
		p.Run()
		st := p.Stats()
		totals[lps] = [2]int64{st.TotalEvents(), st.TotalSends()}
	}
	ref := totals[1]
	for _, lps := range []int{2, 4, 8} {
		if totals[lps] != ref {
			t.Errorf("%d LPs: totals (events, sends) = %v, want %v (1 LP)", lps, totals[lps], ref)
		}
	}
}

// TestStatsProfilingDoesNotChangeResults runs the same graph with and
// without profiling and demands identical final virtual times and counts —
// the bit-identity side of the profiling contract.
func TestStatsProfilingDoesNotChangeResults(t *testing.T) {
	run := func(profile bool) (float64, int64) {
		p, err := NewParallel(4, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		p.SetProfiling(profile)
		cascadeGraph(t, p, 24)
		final := p.Run()
		return final, p.Stats().TotalEvents()
	}
	plainT, plainN := run(false)
	profT, profN := run(true)
	if plainT != profT {
		t.Errorf("profiled final time %v != unprofiled %v", profT, plainT)
	}
	if plainN != profN {
		t.Errorf("profiled event count %d != unprofiled %d", profN, plainN)
	}
}

// TestStatsBarrierWaitOnlyWhenProfiled: the wall-clock barrier timer stays
// zero unless SetProfiling(true).
func TestStatsBarrierWaitOnlyWhenProfiled(t *testing.T) {
	p, err := NewParallel(4, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	cascadeGraph(t, p, 24)
	p.Run()
	if w := p.Stats().TotalBarrierWait(); w != 0 {
		t.Errorf("unprofiled run recorded %v s of barrier wait, want 0", w)
	}
	if p.Stats().Profiled {
		t.Error("Profiled = true without SetProfiling")
	}
}

// TestStatsAccumulateAcrossResets: Reset clears queues but not the profile;
// ResetStats clears the profile.
func TestStatsAccumulateAcrossResets(t *testing.T) {
	p, err := NewParallel(2, 1e-6)
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
	st := p.Stats()
	if st.TotalEvents() != 0 || st.TotalSends() != 0 || st.Epochs != 0 || st.LookaheadLimited != 0 {
		t.Errorf("ResetStats left nonzero profile: %+v", st)
	}
}

// TestStatsImbalance pins ImbalanceMax on a deliberately skewed load.
func TestStatsImbalance(t *testing.T) {
	p, err := NewParallel(2, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// 30 events on LP 0, 10 on LP 1: mean 20, max 30, ratio 1.5.
	for i := 0; i < 30; i++ {
		if err := p.LP(0).ScheduleAt(float64(i)*1e-9, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := p.LP(1).ScheduleAt(float64(i)*1e-9, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	p.Run()
	if got := p.Stats().ImbalanceMax(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("ImbalanceMax = %v, want 1.5", got)
	}
	if got := (ParallelStats{}).ImbalanceMax(); got != 1 {
		t.Errorf("empty ImbalanceMax = %v, want 1", got)
	}
}
