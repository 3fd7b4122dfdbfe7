package des

// This file holds the engine's profiling surface: events executed per LP.
// The total is the work a run cost, the same at every LP count; the per-LP
// rows show how the fabric's node blocks split it.
//
// The counters never observe or advance virtual time: each is one atomic add
// per LP per run, a side effect of work the engine already does. They are
// atomics so a Stats snapshot may be read from another goroutine while a
// run is in flight — this is what the live -status HTTP endpoint does.

// LPStats is a point-in-time snapshot of one LP's cumulative profile.
type LPStats struct {
	// LP is the logical-process index.
	LP int
	// Events is the number of events this LP executed.
	Events int64
}

// ParallelStats is a snapshot of the engine's cumulative profile. Snapshots
// are safe to take while a run is in flight, in which case each LP's count
// includes its runs that have finished draining.
type ParallelStats struct {
	// LPs holds one entry per logical process, ordered by LP index.
	LPs []LPStats
}

// TotalEvents sums executed events across LPs.
func (s ParallelStats) TotalEvents() int64 {
	var n int64
	for _, lp := range s.LPs {
		n += lp.Events
	}
	return n
}

// Stats snapshots the cumulative profile. Safe to call concurrently with a
// run in flight (the live status endpoint does).
func (p *ParallelEngine) Stats() ParallelStats {
	st := ParallelStats{LPs: make([]LPStats, len(p.lps))}
	for i, l := range p.lps {
		st.LPs[i] = LPStats{LP: i, Events: l.events.Load()}
	}
	return st
}

// ResetStats rewinds every event counter to zero. Reset (the per-round
// queue clear) deliberately leaves the counters alone so they accumulate
// across the rounds of one run.
func (p *ParallelEngine) ResetStats() {
	for _, l := range p.lps {
		l.events.Store(0)
	}
}
