package metrics

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsDisabledAndSafe(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	c := r.Counter("f", "l")
	g := r.Gauge("f2", "l")
	h := r.Histogram("f3", "l")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil handles")
	}
	// All handle methods must be no-ops, not panics.
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.SetMax(2)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil handles returned non-zero values")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := New()
	c := r.Counter("msgs", "tni0")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if c2 := r.Counter("msgs", "tni0"); c2 != c {
		t.Fatal("same name+label returned a different counter")
	}
	g := r.Gauge("imbalance", "pair")
	g.Set(1.5)
	g.SetMax(1.2) // lower: ignored
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
	g.SetMax(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge after SetMax = %g, want 2.5", got)
	}
}

// ObserveN of a tallied batch leaves a histogram exactly where one Observe
// per value would: buckets, count, sum, min and max, for integer values.
func TestObserveNMatchesObserve(t *testing.T) {
	r := New()
	one := r.HistogramWith("one", "a", LinearBuckets(0, 1, 33))
	batched := r.HistogramWith("batched", "a", LinearBuckets(0, 1, 33))
	tally := map[int]uint64{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		v := rng.Intn(40) // past the last bucket too
		one.Observe(float64(v))
		tally[v]++
	}
	for v := 39; v >= 0; v-- {
		batched.ObserveN(float64(v), tally[v])
	}
	batched.ObserveN(7, 0) // an empty batch changes nothing
	c1, s1, lo1, hi1, _, _, _ := one.snapshot()
	c2, s2, lo2, hi2, _, _, _ := batched.snapshot()
	if c1 != c2 || s1 != s2 || lo1 != lo2 || hi1 != hi2 {
		t.Errorf("batched (count %d, sum %g, min %g, max %g), want (%d, %g, %g, %g)", c2, s2, lo2, hi2, c1, s1, lo1, hi1)
	}
	for i := range one.counts {
		if one.counts[i] != batched.counts[i] {
			t.Fatalf("bucket %d: batched %d, want %d", i, batched.counts[i], one.counts[i])
		}
	}
	var nilHist *Histogram
	nilHist.ObserveN(1, 3)
}

func TestFamilyKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("f", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("f", "a")
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(1e-8, 10, 5)
	want := []float64{1e-8, 1e-7, 1e-6, 1e-5, 1e-4}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-20 {
			t.Fatalf("bucket[%d] = %g, want %g", i, b[i], want[i])
		}
	}
	def := DefTimeBuckets()
	if !sort.Float64sAreSorted(def) {
		t.Fatal("default buckets not ascending")
	}
	if def[0] > 1e-8 || def[len(def)-1] < 1e3 {
		t.Fatalf("default buckets cover [%g, %g], want at least [1e-8, 1e3]", def[0], def[len(def)-1])
	}
}

// exactQuantile returns the q-th value of sorted xs using the same
// "rank = q*n, take the observation containing it" convention the histogram
// interpolates against.
func exactQuantile(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// TestHistogramQuantileVsExact checks the bucket-interpolation estimate
// against exact quantiles on known distributions: the estimate must land
// within one bucket width (a factor of the bucket ratio for log buckets).
func TestHistogramQuantileVsExact(t *testing.T) {
	factor := math.Pow(10, 0.25)
	dists := map[string]func(rng *rand.Rand) float64{
		"uniform":   func(rng *rand.Rand) float64 { return 1e-6 * rng.Float64() },
		"exp":       func(rng *rand.Rand) float64 { return 1e-6 * rng.ExpFloat64() },
		"lognormal": func(rng *rand.Rand) float64 { return 1e-6 * math.Exp(rng.NormFloat64()) },
	}
	for name, gen := range dists {
		rng := rand.New(rand.NewSource(7))
		h := newHistogram(DefTimeBuckets())
		xs := make([]float64, 20000)
		for i := range xs {
			xs[i] = gen(rng)
			h.Observe(xs[i])
		}
		sort.Float64s(xs)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			got := h.Quantile(q)
			want := exactQuantile(xs, q)
			// A log-bucket estimate can be off by at most one bucket ratio.
			if got < want/factor-1e-15 || got > want*factor+1e-15 {
				t.Errorf("%s q=%.2f: estimate %g outside [%g, %g] around exact %g",
					name, q, got, want/factor, want*factor, want)
			}
		}
		// Extremes are exact, not estimated.
		if h.Quantile(0) != xs[0] || h.Quantile(1) != xs[len(xs)-1] {
			t.Errorf("%s: q=0/q=1 not exact min/max", name)
		}
	}
}

func TestHistogramQuantileSingleValue(t *testing.T) {
	h := newHistogram(DefTimeBuckets())
	h.Observe(3e-6)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 3e-6 {
			t.Fatalf("q=%g = %g, want exactly 3e-6 (clamped to observed range)", q, got)
		}
	}
	if h.Mean() != 3e-6 || h.Count() != 1 {
		t.Fatal("mean/count wrong for single observation")
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	for _, v := range []float64{0.5, 1.5, 10, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	// q=1 must return the true max even though 100 landed in overflow.
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("q=1 = %g, want 100", got)
	}
	// Estimates inside overflow are capped at the observed max.
	if got := h.Quantile(0.95); got > 100 {
		t.Fatalf("q=0.95 = %g, exceeds observed max", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c", "x")
			h := r.Histogram("h", "x")
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(1e-6)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c", "x").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", "x").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestSnapshotAndExportDeterministic(t *testing.T) {
	r := New()
	r.Counter("b_family", "z").Add(1)
	r.Counter("b_family", "a").Add(2)
	r.Counter("a_family", "x").Add(3)
	r.Gauge("g_family", "y").Set(4.5)
	r.Histogram("h_family", "w").Observe(1e-6)

	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d families, want 4", len(snap))
	}
	if snap[0].Name != "a_family" || snap[1].Name != "b_family" {
		t.Fatalf("families not sorted: %s, %s", snap[0].Name, snap[1].Name)
	}
	if snap[1].Samples[0].Label != "a" || snap[1].Samples[1].Label != "z" {
		t.Fatal("samples not sorted by label")
	}

	var t1, t2 bytes.Buffer
	if err := r.WriteText(&t1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&t2); err != nil {
		t.Fatal(err)
	}
	if t1.String() != t2.String() {
		t.Fatal("text export not deterministic")
	}
	if !strings.Contains(t1.String(), "a_family{x}") {
		t.Fatalf("text export missing sample:\n%s", t1.String())
	}
	var j bytes.Buffer
	if err := r.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(j.String(), `"families"`) {
		t.Fatal("JSON export missing families key")
	}
}

func TestTop(t *testing.T) {
	r := New()
	r.Counter("tni_bytes", "tni0").Add(1)
	r.Histogram("sim_stage_seconds", "pair").Observe(1)
	r.Gauge("sim_stage_imbalance", "pair").Set(1.1)
	r.Counter("zzz_other", "x").Add(1)
	top := r.Top(3, "sim_stage", "tni_")
	if len(top) != 3 {
		t.Fatalf("Top returned %d families, want 3", len(top))
	}
	if top[0].Name != "sim_stage_imbalance" || top[1].Name != "sim_stage_seconds" || top[2].Name != "tni_bytes" {
		t.Fatalf("Top order wrong: %s, %s, %s", top[0].Name, top[1].Name, top[2].Name)
	}
}
