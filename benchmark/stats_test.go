package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{18, 0, false}, // a batch workload: the median is all it can carry
		{99, 0, false}, // 9.9 samples beyond p90
		{100, 90, true},
		{120, 90, true}, // the farm: 12 beyond p90, 6 beyond p95
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {100, 40}, {90, 37}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestMedianOfRepeatsIgnoresOneBadRepeat(t *testing.T) {
	sp := spreadOf([]float64{3.1, 9.7, 3.0}) // one repeat hit by the host
	if sp.med != 3.1 || sp.min != 3.0 || sp.max != 9.7 {
		t.Errorf("spreadOf = %+v, want median 3.1 with spread 3.0..9.7", sp)
	}
}
