// Package threadpool runs the simulator's per-rank work in parallel on the
// host. The paper's section 3.3 replaces OpenMP's fork-join regions
// (measured at 5.8us startup+sync) with a pool of pinned threads that spin
// on work flags (1.1us), and uses six of the pool's threads to drive six
// VCQs concurrently.
//
// The host parallel-for is ForEach: a region is the caller plus
// min(workers, n)-1 helper goroutines started for it, all taking indices
// from one shared atomic counter until none are left. ForEachBeside is the
// same region with one serial task beside it: the caller runs that task
// while the helpers start on the indices, then joins them. Nothing spins
// and nothing outlives the region, so a Pool holds no goroutine between
// regions. The modeled per-region overheads that charge virtual time for
// OpenMP-style vs pool-style regions are the paper's figures, not readings
// of the host region; they belong to the A64FX cost model
// (machine.CostModel's OpenMPRegion and PoolRegion).
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

// region is one parallel-for call's shared state: the indices left to hand
// out, the helpers still running and the first panic a helper raised.
type region struct {
	fn     func(i int)
	n      int
	next   atomic.Int64
	done   sync.WaitGroup
	failed sync.Once
	panic  any
}

// claim runs fn on indices taken one at a time from the shared counter, so
// uneven tasks balance themselves, until the counter passes n.
func (r *region) claim() {
	for i := int(r.next.Add(1)) - 1; i < r.n; i = int(r.next.Add(1)) - 1 {
		r.fn(i)
	}
}

// stop hands out no further index; calls already claimed run to the end.
func (r *region) stop() { r.next.Store(int64(r.n)) }

// help is a helper goroutine's share of the region. A panic in fn stops the
// region and is kept for the caller to raise, since a panic on a helper
// would otherwise end the process wherever the region was called from.
func (r *region) help() {
	defer r.done.Done()
	defer func() {
		if v := recover(); v != nil {
			r.stop()
			r.failed.Do(func() { r.panic = v })
		}
	}()
	r.claim()
}

// run starts helpers goroutines on the region, runs side (if not nil) and
// then its own share of the indices on the caller, and joins the helpers.
func (r *region) run(helpers int, side func()) {
	r.done.Add(helpers)
	// One method value for every helper: `go r.help()` would allocate a
	// wrapper per goroutine.
	help := r.help
	for range helpers {
		go help()
	}
	defer r.join()
	if side != nil {
		side()
	}
	r.claim()
}

// join waits for every helper to stop and raises a helper's panic on the
// caller. Deferred, it also runs when side or fn panics on the caller: it
// stops the region first, so the helpers finish the calls they hold and
// take no more.
func (r *region) join() {
	r.stop()
	r.done.Wait()
	if r.panic != nil {
		panic(r.panic)
	}
}

// ForEach runs fn(i) for every i in [0, n) on min(workers, n) goroutines,
// the caller among them, and returns when all calls have. With one worker
// (or fewer) it starts no goroutine. The calls of one region run
// concurrently, so fn must not share unsynchronized state across indices.
// A task may itself call ForEach: each region starts its own helpers. A
// panic in fn, on whichever goroutine, stops the region from handing out
// further indices and is raised on the caller once every call in flight
// has returned.
func ForEach(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	r := &region{fn: fn, n: n}
	r.run(workers-1, nil)
}

// ForEachBeside runs side on the calling goroutine and fn(i) for every i in
// [0, n) on the others of workers goroutines, min(workers-1, n) helpers
// started for the region; when side returns, the caller joins the helpers
// in taking indices, and the call returns when every fn call and side have.
// side and fn run concurrently, so they must share no unsynchronized state.
// With one worker (or fewer) it starts no goroutine: side runs, then every
// fn call, on the caller. Panics surface as ForEach's do.
func ForEachBeside(workers, n int, fn func(i int), side func()) {
	helpers := min(workers-1, n)
	if helpers <= 0 {
		side()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	r := &region{fn: fn, n: n}
	r.run(helpers, side)
}

// Pool is a worker count and the metrics of the regions run at it; its
// regions are package ForEach and ForEachBeside calls. It holds no
// goroutine. The zero value is not
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
// When on, every ForEach, ForEachBeside and ForEachChunked region observes
// its wall-clock dispatch+join latency (the quantity the paper's
// 5.8us-vs-1.1us microbenchmark measures) and counts tasks executed.
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

// ForEachBeside runs side on the calling goroutine while the pool's other
// workers run fn(i) for every i in [0, n), then joins them (package
// ForEachBeside), and blocks until all complete. A region of n > 0 tasks
// counts as one region in the pool's metrics; with n <= 0 it only runs
// side.
func (p *Pool) ForEachBeside(n int, fn func(i int), side func()) {
	p.mustBeOpen("ForEachBeside")
	if n <= 0 {
		side()
		return
	}
	if p.met != nil {
		start := time.Now() //tofuvet:allow wallclock host dispatch-latency metric
		defer p.observeRegion(n, start)
	}
	ForEachBeside(p.workers, n, fn, side)
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
