package metrics

import (
	"math"
	"sort"
	"sync"
)

// Histogram is a fixed-bucket distribution: observations are counted into
// log-spaced (or caller-supplied) buckets, with exact count/sum/min/max and
// bucket-interpolated quantile estimates. All methods are safe for
// concurrent use; a nil *Histogram is a valid disabled histogram.
type Histogram struct {
	mu sync.Mutex
	// bounds are ascending bucket upper limits; counts has len(bounds)+1
	// entries, the last being the overflow bucket (> bounds[len-1]).
	bounds []float64
	counts []uint64

	count    uint64
	sum      float64
	min, max float64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]uint64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// DefTimeBuckets returns the default log-spaced duration buckets: factor
// 10^0.25 (~1.78x) from 10ns up to 1000s, which covers everything from a
// single injection gap to a full -full benchmark run in 45 buckets.
func DefTimeBuckets() []float64 {
	return LogBuckets(1e-8, math.Pow(10, 0.25), 45)
}

// LogBuckets returns n geometrically spaced upper bounds starting at start
// with the given factor between consecutive bounds.
func LogBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("metrics: LogBuckets needs n > 0, start > 0, factor > 1")
	}
	out := make([]float64, n)
	// Recompute each bound from the exponent rather than multiplying up, so
	// bounds are reproducible regardless of accumulation order.
	for i := range out {
		out[i] = start * math.Pow(factor, float64(i))
	}
	return out
}

// LinearBuckets returns n evenly spaced upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if n <= 0 || width <= 0 {
		panic("metrics: LinearBuckets needs n > 0, width > 0")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// Observe adds one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = overflow
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// ObserveN adds n observations of v at once: one lock and one bucket search
// for a batch that a caller tallied itself. Its sum is exact where adding v
// n times is, e.g. for integer v.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i] += n
	h.count += n
	h.sum += v * float64(n)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of observations (0 for a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the exact sum of observations (0 for a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns sum/count, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by locating the bucket
// holding the q-th observation and interpolating linearly within it. The
// estimate is clamped to the exact observed [min, max], so Quantile(0) and
// Quantile(1) are exact. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		// The target observation falls in bucket i: (lo, hi].
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		var hi float64
		if i < len(h.bounds) {
			hi = h.bounds[i]
		} else {
			hi = h.max // overflow bucket: cap at the observed max
		}
		v := lo + (hi-lo)*(rank-prev)/float64(c)
		// Clamp to the observed range so sparse buckets can't widen the
		// estimate beyond real data.
		return math.Min(math.Max(v, h.min), h.max)
	}
	return h.max
}

// snapshotLocked captures the exported view; caller need not hold the lock.
func (h *Histogram) snapshot() (count uint64, sum, min, max, p50, p95, p99 float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0, 0, 0, 0, 0, 0, 0
	}
	return h.count, h.sum, h.min, h.max,
		h.quantileLocked(0.50), h.quantileLocked(0.95), h.quantileLocked(0.99)
}
