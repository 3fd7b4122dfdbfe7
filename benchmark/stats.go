package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder is the set of tail percentiles the benchmark may report.
var tailLadder = []int{90, 95, 99}

// tailPercentile applies the reporting rule: the highest ladder percentile
// that still has at least ten samples beyond it. ok is false when even p90
// does not (fewer than 100 samples), in which case only the median is
// reported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailLadder {
		if n*(100-c) >= 10*100 {
			p, ok = float64(c), true
		}
	}
	return p, ok
}

// spread summarises per-repeat values: the median is what is reported, min
// and max are printed beside it so a reader sees how far repeats disagreed.
type spread struct{ med, min, max float64 }

func spreadOf(xs []float64) spread {
	if len(xs) == 0 {
		return spread{math.NaN(), math.NaN(), math.NaN()}
	}
	sp := spread{med: median(xs), min: xs[0], max: xs[0]}
	for _, x := range xs[1:] {
		sp.min = math.Min(sp.min, x)
		sp.max = math.Max(sp.max, x)
	}
	return sp
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
