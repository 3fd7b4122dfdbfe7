package threadpool

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tofumd/internal/machine"
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

// goid returns the calling goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

// TestForEachBeside: at every worker count and for n of 0, 1, fewer than
// the workers and more, side runs exactly once, on the calling goroutine,
// and every index runs exactly once. With a helper to spare, fn runs while
// side is still running: side waits for a call to start before returning.
func TestForEachBeside(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := New(workers)
		for _, n := range []int{0, 1, workers - 1, workers + 1, 50} {
			caller := goid()
			hits := make([]atomic.Int32, n)
			started := make(chan struct{}, n)
			sides, sideOn, beside := 0, "", false
			p.ForEachBeside(n, func(i int) {
				hits[i].Add(1)
				started <- struct{}{}
			}, func() {
				sides++
				sideOn = goid()
				if workers > 1 && n > 0 {
					select {
					case <-started:
						beside = true
					case <-time.After(10 * time.Second):
					}
				}
			})
			if sides != 1 || sideOn != caller {
				t.Errorf("workers=%d n=%d: side ran %d times, on goroutine %s; want once, on the caller %s",
					workers, n, sides, sideOn, caller)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
			if workers > 1 && n > 0 && !beside {
				t.Errorf("workers=%d n=%d: no fn call started while side ran", workers, n)
			}
		}
		p.Close()
	}
}

// TestRegionPanicsSurfaceOnCaller: a panic in fn (on whichever goroutine
// runs the index) or in side is raised on the caller of ForEach or
// ForEachBeside, with its own value, once no call of the region is still
// running, and leaves no goroutine behind.
func TestRegionPanicsSurfaceOnCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 4} {
		p := New(workers)
		for _, n := range []int{1, workers, 40} {
			for _, where := range []string{"first", "last", "side"} {
				label := fmt.Sprintf("workers=%d n=%d %s", workers, n, where)
				var active atomic.Int32
				bad := n - 1
				if where == "first" {
					bad = 0
				}
				fn := func(i int) {
					active.Add(1)
					defer active.Add(-1)
					time.Sleep(50 * time.Microsecond)
					if where != "side" && i == bad {
						panic(label)
					}
				}
				side := func() {
					if where == "side" {
						panic(label)
					}
				}
				for _, beside := range []bool{false, true} {
					if !beside && where == "side" {
						continue
					}
					name := "ForEach"
					if beside {
						name = "ForEachBeside"
					}
					func() {
						defer func() {
							if got := recover(); got != label {
								t.Errorf("%s %s: recovered %v, want %q", name, label, got, label)
							}
							if a := active.Load(); a != 0 {
								t.Errorf("%s %s: %d calls still running when the panic surfaced", name, label, a)
							}
						}()
						if beside {
							p.ForEachBeside(n, fn, side)
						} else {
							p.ForEach(n, fn)
						}
					}()
				}
			}
		}
		p.Close()
	}
	if got := waitGoroutines(base); got > base {
		t.Errorf("after the panicking regions: %d goroutines, baseline %d", got, base)
	}
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

// TestOverheadConstantsMatchPaper holds the cost model's region overheads,
// which charge every modeled parallel region, to section 3.3: OpenMP 5.8us,
// thread pool 1.1us.
func TestOverheadConstantsMatchPaper(t *testing.T) {
	c := machine.DefaultCostModel()
	if c.OpenMPRegion != 5.8e-6 {
		t.Errorf("OpenMP overhead = %v", c.OpenMPRegion)
	}
	if c.PoolRegion != 1.1e-6 {
		t.Errorf("pool overhead = %v", c.PoolRegion)
	}
	if c.PoolRegion >= c.OpenMPRegion {
		t.Error("pool overhead must be below OpenMP overhead")
	}
}
