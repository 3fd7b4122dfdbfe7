// Package threadpool runs the simulator's per-rank work in parallel on the
// host, and holds the modeled per-region overheads of the paper's section
// 3.3. The paper replaces OpenMP's fork-join regions (measured at 5.8us
// startup+sync) with a pool of pinned threads that spin on work flags
// (1.1us), and uses six of the pool's threads to drive six VCQs
// concurrently.
//
// Two things live here:
//
//   - the host parallel-for, ForEach: a region is the caller plus
//     min(workers, n)-1 helper goroutines started for it, all taking
//     indices from one shared atomic counter until none are left. Nothing
//     spins and nothing outlives the region, so a Pool holds no goroutine
//     between regions;
//   - the modeled per-region overhead constants used to charge virtual time
//     for OpenMP-style vs pool-style parallel regions in the A64FX cost
//     model. They are the paper's figures, not readings of the host region.
//
// # Wall-clock exemptions
//
// tofuvet's determinism analyzer bans wall-clock reads (time.Now,
// time.Since) in model packages so simulated results never depend on host
// timing. This package's pool metrics are the sanctioned exception: they
// measure the host region's dispatch latency against the paper's 1.1us
// figure and never feed virtual time. Each such call site carries a
//
//	//tofuvet:allow wallclock <reason>
//
// directive — on the flagged line, the line above it, or in the enclosing
// function's doc comment (which exempts the whole function). The same
// syntax suppresses any tofuvet check by name; the reason is mandatory by
// convention so exemptions stay reviewable.
package threadpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tofumd/internal/metrics"
)

// Modeled per-parallel-region overheads (seconds of virtual time), as
// measured by the paper's microbenchmark (section 3.3).
const (
	// OpenMPRegionOverhead is the fork-join startup+synchronization cost of
	// one OpenMP parallel region.
	OpenMPRegionOverhead = 5.8e-6
	// PoolRegionOverhead is the dispatch+join cost of one spin-lock thread
	// pool region.
	PoolRegionOverhead = 1.1e-6
)

// region is one ForEach call's shared state: the indices left to hand out
// and the workers still running.
type region struct {
	fn   func(i int)
	n    int
	next atomic.Int64
	done sync.WaitGroup
}

// work runs fn on indices taken one at a time from the shared counter, so
// uneven tasks balance themselves, until the counter passes n.
func (r *region) work() {
	for i := int(r.next.Add(1)) - 1; i < r.n; i = int(r.next.Add(1)) - 1 {
		r.fn(i)
	}
	r.done.Done()
}

// ForEach runs fn(i) for every i in [0, n) on min(workers, n) goroutines,
// the caller among them, and returns when all calls have. With one worker
// (or fewer) it starts no goroutine. The calls of one region run
// concurrently, so fn must not share unsynchronized state across indices.
// A task may itself call ForEach: each region starts its own helpers.
func ForEach(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	r := &region{fn: fn, n: n}
	r.done.Add(workers)
	// One method value for every helper: `go r.work()` would allocate a
	// wrapper per goroutine.
	work := r.work
	for w := 1; w < workers; w++ {
		go work()
	}
	r.work()
	r.done.Wait()
}

// Pool is a worker count and the metrics of the regions run at it; its
// regions are ForEach calls. It holds no goroutine. The zero value is not
// usable; call New.
type Pool struct {
	workers int
	closed  atomic.Bool

	// met caches metric handles (see SetMetrics); nil when metrics are off.
	// Pool metrics measure host wall-clock dispatch latency — they observe
	// the host region against the 1.1us model and never touch the
	// simulation's virtual time.
	met *poolMetrics
}

// poolMetrics caches the pool's metric handles.
type poolMetrics struct {
	regions, tasks  *metrics.Counter
	dispatchSeconds *metrics.Histogram
}

// SetMetrics enables (or, with a nil registry, disables) metric collection.
// When on, every ForEach/ForEachChunked region observes its wall-clock
// dispatch+join latency (the quantity the paper's 5.8us-vs-1.1us
// microbenchmark measures) and counts tasks executed.
func (p *Pool) SetMetrics(reg *metrics.Registry) {
	if !reg.Enabled() {
		p.met = nil
		return
	}
	p.met = &poolMetrics{
		regions:         reg.Counter("pool_regions", "dispatched"),
		tasks:           reg.Counter("pool_tasks", "executed"),
		dispatchSeconds: reg.Histogram("pool_dispatch_seconds", "wall"),
	}
}

// observeRegion records one parallel region of n tasks and the host
// wall-clock time it took since start.
//
//tofuvet:allow wallclock pool metrics observe real dispatch latency, not virtual time
func (p *Pool) observeRegion(n int, start time.Time) {
	p.met.regions.Inc()
	p.met.tasks.Add(int64(n))
	p.met.dispatchSeconds.Observe(time.Since(start).Seconds())
}

// New creates a pool of n workers; n <= 0 uses GOMAXPROCS. It starts no
// goroutine.
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.workers }

// mustBeOpen panics when op is called after Close.
func (p *Pool) mustBeOpen(op string) {
	if p.closed.Load() {
		panic("threadpool: " + op + " on a closed Pool")
	}
}

// ForEach runs fn(i) for every i in [0, n) at the pool's worker count
// (package ForEach) and blocks until all complete. It is safe to call from
// multiple goroutines.
func (p *Pool) ForEach(n int, fn func(i int)) {
	p.mustBeOpen("ForEach")
	if n <= 0 {
		return
	}
	if p.met != nil {
		start := time.Now() //tofuvet:allow wallclock host dispatch-latency metric
		defer p.observeRegion(n, start)
	}
	ForEach(p.workers, n, fn)
}

// ForEachChunked runs fn over [0, n) in at most Workers contiguous chunks,
// one task each, which is cheaper than ForEach when n is large and the
// per-index work is tiny. fn receives the half-open range [lo, hi), never
// an empty one.
func (p *Pool) ForEachChunked(n int, fn func(lo, hi int)) {
	p.mustBeOpen("ForEachChunked")
	if n <= 0 {
		return
	}
	if p.met != nil {
		start := time.Now() //tofuvet:allow wallclock host dispatch-latency metric
		defer p.observeRegion(n, start)
	}
	// Rounding size up can leave fewer chunks than workers (n=9, workers=8
	// gives size 2 and five chunks), so the chunk count follows from size.
	size := (n + p.workers - 1) / p.workers
	ForEach(p.workers, (n+size-1)/size, func(c int) {
		lo := c * size
		fn(lo, min(lo+size, n))
	})
}

// Close marks the pool closed; there is no goroutine to stop. Further use
// of the pool panics. Close is idempotent.
func (p *Pool) Close() { p.closed.Store(true) }
