package des

import (
	"sync"
	"sync/atomic"
	"testing"
)

// cascadeGraph seeds chains chains of depth+1 events, each scheduling the
// next, and returns the expected total event count.
func cascadeGraph(t *testing.T, q *Queue, chains, depth int) int {
	t.Helper()
	s := newTagSched(q)
	var chain func(level int) func()
	chain = func(level int) func() {
		return func() {
			if level >= depth {
				return
			}
			if err := s.at(q.Now()+1e-6, chain(level+1)); err != nil {
				t.Errorf("ScheduleTagAt: %v", err)
			}
		}
	}
	for i := 0; i < chains; i++ {
		if err := s.at(float64(i)*1e-9, chain(0)); err != nil {
			t.Fatalf("ScheduleTagAt: %v", err)
		}
	}
	return chains * (depth + 1) // the seed plus depth chained events per chain
}

// TestStatsCountsEventsAndSends pins the counting semantics: every executed
// event is counted once.
func TestStatsCountsEventsAndSends(t *testing.T) {
	const depth = 16
	for _, chains := range []int{1, 2, 4, 8} {
		q := NewQueue()
		want := cascadeGraph(t, q, chains, depth)
		q.Run()
		if got := q.Stats().TotalEvents(); got != int64(want) {
			t.Errorf("%d chains: TotalEvents = %d, want %d", chains, got, want)
		}
	}
}

// TestStatsProfilingDoesNotChangeResults polls Stats from another goroutine
// throughout a run and demands the final virtual time and count of an
// unobserved run: reading the profile mid-run is race-free (checked under
// -race) and changes nothing.
func TestStatsProfilingDoesNotChangeResults(t *testing.T) {
	run := func(poll bool) (float64, int64) {
		q := NewQueue()
		want := cascadeGraph(t, q, 4, 2000)
		var stop atomic.Bool
		var wg sync.WaitGroup
		if poll {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var last int64
				for !stop.Load() {
					n := q.Stats().TotalEvents()
					if n < last || n > int64(want) {
						t.Errorf("mid-run TotalEvents %d after %d, want monotone up to %d", n, last, want)
					}
					last = n
				}
			}()
		}
		final := q.Run()
		stop.Store(true)
		wg.Wait()
		return final, q.Stats().TotalEvents()
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

// TestStatsAccumulateAcrossResets: Reset clears the queue but not the
// profile.
func TestStatsAccumulateAcrossResets(t *testing.T) {
	q := NewQueue()
	cascadeGraph(t, q, 2, 8)
	q.Run()
	first := q.Stats().TotalEvents()
	if first == 0 {
		t.Fatal("no events recorded")
	}
	q.Reset()
	cascadeGraph(t, q, 2, 8)
	q.Run()
	if got := q.Stats().TotalEvents(); got != 2*first {
		t.Errorf("after Reset + rerun: TotalEvents = %d, want %d (accumulating)", got, 2*first)
	}
}
