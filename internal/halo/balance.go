package halo

import (
	"cmp"
	"slices"

	"tofumd/internal/vec"
)

// Link describes one neighbor message for thread balancing: its payload
// size and hop count.
type Link struct {
	Dir   vec.I3
	Bytes int
	Hops  int
}

// BalanceThreads distributes links over nThreads communication threads so
// per-thread costs (wire time plus hop latency, the criterion of Fig. 10)
// are even: longest-processing-time-first greedy assignment. The returned
// slice maps link index to thread.
func BalanceThreads(links []Link, nThreads int, bytesPerSec, hopLatency float64) []int {
	assign := make([]int, len(links))
	if nThreads <= 1 {
		return assign
	}
	cost := make([]float64, len(links))
	order := make([]int, len(links))
	for i, l := range links {
		cost[i] = float64(l.Bytes)/bytesPerSec + float64(l.Hops)*hopLatency
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(cost[y], cost[x]) })
	load := make([]float64, nThreads)
	for _, idx := range order {
		best := 0
		for t := 1; t < nThreads; t++ {
			if load[t] < load[best] {
				best = t
			}
		}
		assign[idx] = best
		load[best] += cost[idx]
	}
	return assign
}

// SurvivingTNIs returns the TNI indices in [0, total) that the quarantine
// predicate does not exclude, in ascending order. The fail-stop re-plan
// calls it with the health tracker's TNIQuarantined to get the TNI set the
// §3.3 balance runs over after a TNI failover.
func SurvivingTNIs(total int, quarantined func(tni int) bool) []int {
	var out []int
	for t := 0; t < total; t++ {
		if quarantined == nil || !quarantined(t) {
			out = append(out, t)
		}
	}
	return out
}

// SurvivorTNI maps comm thread th onto one of the surviving TNI indices,
// preserving the thread-bound policy's round-robin thread→TNI pairing when
// the TNI set shrinks mid-run. Panics on an empty survivor set: a machine
// with every TNI quarantined cannot run one-sided communication at all,
// and the caller must have fallen back to MPI before asking.
func SurvivorTNI(th int, surviving []int) int {
	if len(surviving) == 0 {
		panic("halo: no surviving TNIs to bind a comm thread to")
	}
	return surviving[th%len(surviving)]
}
