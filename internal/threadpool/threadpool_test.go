package threadpool

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsAllIndices(t *testing.T) {
	p := New(4)
	defer p.Close()
	var hits [100]atomic.Int32
	p.ForEach(100, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("index %d ran %d times", i, got)
		}
	}
}

func TestForEachZeroAndOne(t *testing.T) {
	p := New(2)
	defer p.Close()
	ran := 0
	p.ForEach(0, func(int) { ran++ })
	if ran != 0 {
		t.Errorf("ForEach(0) ran %d", ran)
	}
	p.ForEach(1, func(i int) {
		if i != 0 {
			t.Errorf("single index = %d", i)
		}
		ran++
	})
	if ran != 1 {
		t.Errorf("ForEach(1) ran %d", ran)
	}
}

func TestForEachChunkedCoversRange(t *testing.T) {
	p := New(3)
	defer p.Close()
	var hits [1000]atomic.Int32
	p.ForEachChunked(1000, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	})
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d covered %d times", i, got)
		}
	}
}

func TestForEachChunkedGrid(t *testing.T) {
	// Every (n, workers) pair of a small grid: no chunk may be empty or out
	// of range, and together the chunks must cover [0, n) exactly once.
	// n=9, workers=8 is the case where the rounded-up chunk size used to
	// overshoot and call fn(10, 9).
	for workers := 1; workers <= 9; workers++ {
		p := New(workers)
		for n := 0; n <= 40; n++ {
			var mu sync.Mutex
			hits := make([]int, n)
			p.ForEachChunked(n, func(lo, hi int) {
				if lo < 0 || lo >= hi || hi > n {
					t.Errorf("workers=%d n=%d: bad chunk [%d,%d)", workers, n, lo, hi)
					return
				}
				mu.Lock()
				for i := lo; i < hi; i++ {
					hits[i]++
				}
				mu.Unlock()
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, h)
				}
			}
		}
		p.Close()
	}
}

func TestForEachChunkedSmallN(t *testing.T) {
	p := New(8)
	defer p.Close()
	var total atomic.Int32
	p.ForEachChunked(3, func(lo, hi int) { total.Add(int32(hi - lo)) })
	if total.Load() != 3 {
		t.Errorf("covered %d indices, want 3", total.Load())
	}
	p.ForEachChunked(0, func(lo, hi int) { t.Error("chunk for n=0") })
}

func TestSequentialReuse(t *testing.T) {
	p := New(4)
	defer p.Close()
	for round := 0; round < 50; round++ {
		var sum atomic.Int64
		p.ForEach(64, func(i int) { sum.Add(int64(i)) })
		if sum.Load() != 64*63/2 {
			t.Fatalf("round %d: sum = %d", round, sum.Load())
		}
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	p := New(4)
	defer p.Close()
	done := make(chan int64, 8)
	for g := 0; g < 8; g++ {
		go func() {
			var sum atomic.Int64
			p.ForEach(100, func(i int) { sum.Add(1) })
			done <- sum.Load()
		}()
	}
	for g := 0; g < 8; g++ {
		if got := <-done; got != 100 {
			t.Errorf("submitter saw %d completions", got)
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	p := New(0)
	defer p.Close()
	if p.Workers() <= 0 {
		t.Errorf("Workers = %d", p.Workers())
	}
}

func TestCloseIdempotent(t *testing.T) {
	p := New(2)
	p.Close()
	p.Close() // must not panic
}

func TestForEachAfterClosePanics(t *testing.T) {
	p := New(4)
	p.Close()
	mustPanic := func(name string, call func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "closed Pool") {
				t.Errorf("%s after Close: recovered %q, want a closed-Pool panic", name, msg)
			}
		}()
		call()
	}
	for _, n := range []int{0, 1, 2, 4, 9} {
		mustPanic("ForEach", func() { p.ForEach(n, func(int) {}) })
		mustPanic("ForEachChunked", func() { p.ForEachChunked(n, func(int, int) {}) })
	}
}

// waitGoroutines waits up to a second for runtime.NumGoroutine to fall to
// at most want and returns the last reading: a helper that has signalled
// the region's WaitGroup may still be exiting when ForEach returns.
func waitGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPoolHoldsNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	p := New(4)
	defer p.Close()
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("New(4) left %d goroutines, baseline %d", got, base)
	}
	for _, n := range []int{1, 3, 4, 16} {
		var mu sync.Mutex
		active, peak := 0, 0
		p.ForEach(n, func(int) {
			mu.Lock()
			active++
			peak = max(peak, active)
			mu.Unlock()
			time.Sleep(200 * time.Microsecond)
			mu.Lock()
			active--
			mu.Unlock()
		})
		if got, limit := peak, min(4, n); got > limit {
			t.Errorf("ForEach(%d) on 4 workers ran %d calls at once, want at most %d", n, got, limit)
		}
		if got := waitGoroutines(base); got > base {
			t.Errorf("after ForEach(%d): %d goroutines, baseline %d", n, got, base)
		}
	}

	one := New(1)
	defer one.Close()
	one.ForEach(8, func(i int) {
		if got := runtime.NumGoroutine(); got > base {
			t.Errorf("New(1): %d goroutines during index %d, baseline %d", got, i, base)
		}
	})
}

func BenchmarkForEach(b *testing.B) {
	p := New(0)
	defer p.Close()
	noop := func(int) {}
	for _, n := range []int{32, 256} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.ForEach(n, noop)
			}
		})
	}
}

func TestOverheadConstantsMatchPaper(t *testing.T) {
	// Section 3.3: OpenMP 5.8us, thread pool 1.1us.
	if OpenMPRegionOverhead != 5.8e-6 {
		t.Errorf("OpenMP overhead = %v", OpenMPRegionOverhead)
	}
	if PoolRegionOverhead != 1.1e-6 {
		t.Errorf("pool overhead = %v", PoolRegionOverhead)
	}
	if PoolRegionOverhead >= OpenMPRegionOverhead {
		t.Error("pool overhead must be below OpenMP overhead")
	}
}
