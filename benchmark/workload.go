package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"tofumd/internal/metrics"
)

// workload is one set of inputs the benchmark runs. A workload is a sequence
// of equal ops issued by one or more closed-loop clients.
type workload struct {
	name string
	why  string
	// clients is the number of concurrent closed-loop clients (1 for the
	// batch workloads).
	clients int
	// fixedOps is the number of ops per client per repeat whose
	// virtual-clock results form the fingerprint and the exact per-op
	// counts. A repeat never runs fewer, however slow the host, so the
	// fingerprint of two commits always covers the same ops.
	fixedOps int
	// minOps (>= fixedOps) is the fewest ops per client per repeat; it is
	// higher only where the tail percentile needs the samples.
	minOps int
	// block, when above 1, makes a client stop only after a whole number of
	// blocks of that many ops: the farm draws its job sizes in balanced
	// blocks, and a partial block would tilt the mix the percentiles see.
	block int
	// seedWarmup marks workloads whose warm-up is 1 + seed mod 3 ops, so
	// another seed measures another stretch of the same trajectory; the
	// others warm up for a fixed number of ops.
	seedWarmup bool
	warmup     int
	build      func(e *env, w *workload) (instance, error)
}

// env is what a repeat hands to the workload it builds.
type env struct {
	seed  int
	quick bool
	// reg and root are nil in the untraced passes.
	reg  *metrics.Registry
	root *span
	// tmp is a directory inside the checkout for on-disk state.
	tmp string
}

// instance is a built system. run performs one op (timed by the caller);
// check applies the workload's sanity function to the op run last by that
// client and returns its virtual-clock result. Only the client's own
// goroutine calls run and check for a given client index.
type instance interface {
	run(client, i int, op *span)
	check(client, i int) (opVirt, error)
	close()
}

// opVirt is what an op did on the virtual clock: seconds elapsed and a hash
// of everything that must not depend on the host.
type opVirt struct {
	sec  float64
	hash uint64
}

// prober is implemented by instances that carry per-layer probes; the
// traced pass calls it after the ops, with the system still warm.
type prober interface {
	probe(p *probeCtx)
}

type sample struct {
	client, i int
	ms        float64
	virt      opVirt
	err       error
}

// runOps drives every client through its ops, numbered from 0, until the
// deadline has passed and each has done at least minOps, rounded up to whole
// blocks (a zero deadline means no more than that).
func runOps(inst instance, clients, minOps, block int, deadline time.Time, phase *span) []sample {
	var mu sync.Mutex
	var out []sample
	loop := func(c int) {
		var mine []sample
		for i := 0; i < minOps || i%block != 0 || (!deadline.IsZero() && time.Now().Before(deadline)); i++ {
			op := phase.opChild(c, i)
			t0 := time.Now()
			inst.run(c, i, op)
			d := time.Since(t0)
			op.finish()
			v, err := inst.check(c, i)
			mine = append(mine, sample{client: c, i: i, ms: ms(d), virt: v, err: err})
		}
		mu.Lock()
		out = append(out, mine...)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			loop(c)
		}(c)
	}
	wg.Wait()
	return out
}

// memDelta is what the Go runtime did during a timed phase.
type memDelta struct {
	allocMB, mallocs, gcCycles, gcPauseMS float64
}

func memSince(a, b *runtime.MemStats) memDelta {
	return memDelta{
		allocMB:   float64(b.TotalAlloc-a.TotalAlloc) / 1e6,
		mallocs:   float64(b.Mallocs - a.Mallocs),
		gcCycles:  float64(b.NumGC - a.NumGC),
		gcPauseMS: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}

// repeatResult is one repeat: a fresh build, warm-up, and the timed ops.
type repeatResult struct {
	setupS     float64
	wallS      float64
	liveHeapMB float64
	mem        memDelta
	samples    []sample
	// fixed are the first fixedOps samples of every client, in (client, i)
	// order: the part of the repeat that is the same on every host.
	fixed []sample
	// extra holds workload-specific exact values over the fixed ops.
	extra map[string]float64
	// timedFrom is when the timed phase began on the tracer's clock (traced
	// pass only): spans before it belong to set-up and warm-up.
	timedFrom time.Duration
}

func (r *repeatResult) passed() []float64 {
	var xs []float64
	for _, s := range r.samples {
		if s.err == nil {
			xs = append(xs, s.ms)
		}
	}
	return xs
}

// fingerprint hashes the virtual-clock results of the fixed ops.
func (r *repeatResult) fingerprint() string {
	h := fnv.New64a()
	for _, s := range r.fixed {
		for _, v := range [...]uint64{uint64(s.client), uint64(s.i), math.Float64bits(s.virt.sec), s.virt.hash} {
			h.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fixedReader is implemented by instances that read exact values (counters,
// virtual-clock shares) over the fixed ops: beginTimed is called once, just
// before timed op 0, the instance takes its closing reading in check of op
// fixedOps-1, and extras returns the per-op differences.
type fixedReader interface {
	beginTimed()
	extras() map[string]float64
}

// heapReporter is implemented by an instance that keeps nothing alive
// between ops and reports the live heap it measured itself.
type heapReporter interface {
	liveHeapMB() float64
}

// setupBudget is how long a repeat keeps rebuilding a cheap system to time
// its set-up more than once; a millisecond-scale set-up timed once is noise.
const (
	setupBudget   = 100 * time.Millisecond
	maxSetupTries = 9
)

// runRepeat builds the workload fresh, warms it up and runs the timed ops.
// seconds is the timed budget of this repeat. after, when non-nil, runs with
// the system still alive (the traced pass hangs the probes there).
func runRepeat(w *workload, e *env, seconds float64, after func(inst instance, r *repeatResult)) (*repeatResult, error) {
	r := &repeatResult{}
	var inst instance
	var setups []float64
	for spent := 0.0; inst == nil || (spent < setupBudget.Seconds() && len(setups) < maxSetupTries); {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		setup := e.root.child("setup")
		t0 := time.Now()
		var err error
		inst, err = w.build(e, w)
		d := time.Since(t0).Seconds()
		setup.finish()
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, d)
		spent += d
	}
	defer inst.close()
	r.setupS = median(setups)

	warm := 1 + e.seed%3
	if !w.seedWarmup {
		warm = w.warmup
	}
	wsp := e.root.child("warmup")
	for _, s := range runOps(inst, w.clients, warm, 1, time.Time{}, wsp) {
		if s.err != nil {
			wsp.finish()
			return nil, fmt.Errorf("%s: warm-up op %d failed its sanity check: %w", w.name, s.i, s.err)
		}
	}
	wsp.finish()

	// Live heap: what the warmed system keeps once garbage is gone. It is
	// read here, not after the timed ops, so it does not depend on how many
	// ops the host managed in the budget (the farm keeps every finished
	// job's snapshot). inst stays referenced, so the system is counted.
	// Two collections: the first only moves sync.Pool contents to the
	// victim cache, the second frees them.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	r.liveHeapMB = float64(m0.HeapAlloc) / 1e6
	if hr, ok := inst.(heapReporter); ok {
		r.liveHeapMB = hr.liveHeapMB()
	}

	fr, _ := inst.(fixedReader)
	if fr != nil {
		fr.beginTimed()
	}
	timed := e.root.child("timed")
	if timed != nil {
		r.timedFrom = timed.start
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	r.samples = runOps(inst, w.clients, w.minOps, w.block, deadline, timed)
	r.wallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	timed.finish()
	r.mem = memSince(&m0, &m1)
	for _, s := range r.samples {
		if s.i < w.fixedOps {
			r.fixed = append(r.fixed, s)
		}
	}
	sort.Slice(r.fixed, func(a, b int) bool {
		if r.fixed[a].client != r.fixed[b].client {
			return r.fixed[a].client < r.fixed[b].client
		}
		return r.fixed[a].i < r.fixed[b].i
	})
	if fr != nil {
		r.extra = fr.extras()
	}
	if after != nil {
		after(inst, r)
	}
	return r, nil
}
