package main

import (
	"fmt"
	"hash/fnv"
	"math"
	rtmetrics "runtime/metrics"
	"time"

	"tofumd/internal/core"
	"tofumd/internal/des"
	"tofumd/internal/md/sim"
	"tofumd/internal/metrics"
	"tofumd/internal/topo"
	"tofumd/internal/trace"
	"tofumd/internal/vec"
)

// Paper Fig. 12: opt over ref on the 65K-atom systems, 768 nodes.
const (
	paperSpeedupLJ  = 3.01
	paperSpeedupEAM = 2.45
)

// modelVariant is one of the four timing-only runs that make up an op.
type modelVariant struct {
	label   string
	kind    core.Kind
	variant sim.Variant
}

func modelVariants() []modelVariant {
	return []modelVariant{
		{"lj-ref", core.LJ, sim.Ref()},
		{"lj-opt", core.LJ, sim.Opt()},
		{"eam-ref", core.EAM, sim.Ref()},
		{"eam-opt", core.EAM, sim.Opt()},
	}
}

// modelInst runs core.Modeled on the full tile. Modeled rebuilds machine,
// fabric and link set on every call, so there is nothing to build ahead:
// the workload's set-up is its one cold op, which is also its warm-up.
// Work a later change moves out of the calls and into a first-call cache
// shows there.
type modelInst struct {
	full, tile vec.I3
	perRank    float64
	fixedOps   int
	reg        *metrics.Registry
	variants   []modelVariant

	// peakLiveMB is the largest live heap a GC cycle found during the cold
	// op. Nothing outlives a Modeled call, so the heap left after it is the
	// runtime's floor (0.1 MB, where any new 10 KB table anywhere in the
	// program reads as a 10% regression); what a modeled run needs is what
	// is live while a call is in flight.
	peakLiveMB float64

	last  [4]*core.RunResult
	first [4]*core.RunResult

	timed      bool
	start, end map[string]float64
	fixedRes   [4]*core.RunResult
}

var modelCounters = map[string]string{
	"tofu.transfers_per_op": "fabric_tni_msgs/*",
	"tofu.bytes_per_op":     "fabric_tni_bytes/*",
}

func buildModel(tile vec.I3) func(e *env, w *workload) (instance, error) {
	return func(e *env, w *workload) (instance, error) {
		wl := core.LJSmall()
		m := &modelInst{
			full: wl.FullShape, tile: tile,
			perRank:  float64(wl.Atoms) / float64(wl.FullShape.Prod()*topo.DefaultBlock.Prod()),
			fixedOps: w.fixedOps, reg: e.reg, variants: modelVariants(),
		}
		m.peakLiveMB = peakHeapLive(func() { m.run(0, 0, e.root) })
		if _, err := m.check(0, 0); err != nil {
			return nil, err
		}
		return m, nil
	}
}

func (m *modelInst) spec(v modelVariant) core.ModelSpec {
	return core.ModelSpec{
		Kind: v.kind, Variant: v.variant, FullShape: m.full, TileShape: m.tile,
		AtomsPerRank: m.perRank, Steps: core.LJSmall().Steps, Met: m.reg,
	}
}

func (m *modelInst) run(_, _ int, op *span) {
	for k, v := range m.variants {
		sp := op.child("core.Modeled/" + v.label)
		res, err := core.Modeled(m.spec(v))
		sp.finish()
		if err != nil {
			res = nil
		}
		m.last[k] = res
	}
}

func (m *modelInst) check(_, i int) (opVirt, error) {
	var v opVirt
	h := fnv.New64a()
	for k, res := range m.last {
		if res == nil {
			return v, fmt.Errorf("core.Modeled(%s) failed", m.variants[k].label)
		}
		v.sec += res.Elapsed
		for _, st := range trace.Stages() {
			fmt.Fprintf(h, "%x,", math.Float64bits(res.Breakdown.Get(st)))
		}
		fmt.Fprintf(h, "%x;", math.Float64bits(res.Elapsed))
	}
	v.hash = h.Sum64()
	if m.first[0] == nil {
		m.first = m.last
	}
	if m.timed && i == m.fixedOps-1 {
		m.end = m.counts()
		m.fixedRes = m.last
	}
	for k, res := range m.last {
		label := m.variants[k].label
		switch {
		case math.IsNaN(res.Elapsed) || math.IsInf(res.Elapsed, 0) || res.Elapsed <= 0:
			return v, fmt.Errorf("%s: elapsed is %v", label, res.Elapsed)
		case res.Elapsed != m.first[k].Elapsed:
			return v, fmt.Errorf("%s: elapsed %v differs from op 0's %v", label, res.Elapsed, m.first[k].Elapsed)
		}
	}
	for k := 0; k < len(m.last); k += 2 {
		if m.last[k+1].Elapsed >= m.last[k].Elapsed {
			return v, fmt.Errorf("%s is not faster than %s", m.variants[k+1].label, m.variants[k].label)
		}
	}
	return v, nil
}

func (m *modelInst) beginTimed() {
	m.timed = true
	m.start = m.counts()
}

func (m *modelInst) counts() map[string]float64 {
	out := map[string]float64{}
	if m.reg != nil {
		for name, fam := range modelCounters {
			out[name] = counterSum(m.reg, fam)
		}
	}
	return out
}

// speedups returns opt-over-ref for LJ and EAM from one op's results.
func speedups(res [4]*core.RunResult) (lj, eam float64) {
	return res[0].Elapsed / res[1].Elapsed, res[2].Elapsed / res[3].Elapsed
}

// paperErr is the mean relative distance of the two speedups from Fig. 12.
func paperErr(lj, eam float64) float64 {
	return (math.Abs(lj-paperSpeedupLJ)/paperSpeedupLJ + math.Abs(eam-paperSpeedupEAM)/paperSpeedupEAM) / 2
}

func (m *modelInst) extras() map[string]float64 {
	if m.fixedRes[0] == nil {
		return nil
	}
	var comm, total float64
	for _, res := range m.fixedRes {
		comm += res.Breakdown.Get(trace.Comm)
		total += res.Breakdown.Total()
	}
	lj, eam := speedups(m.fixedRes)
	out := map[string]float64{
		"virt.comm_frac":    comm / total,
		"virt.perf_per_day": m.fixedRes[1].PerfPerDay,
		"virt.speedup_lj":   lj,
		"virt.speedup_eam":  eam,
		"paper_err":         paperErr(lj, eam),
	}
	for name := range m.end {
		out[name] = (m.end[name] - m.start[name]) / float64(m.fixedOps)
	}
	return out
}

func (m *modelInst) close() {}

func (m *modelInst) liveHeapMB() float64 { return m.peakLiveMB }

// peakHeapLive runs fn and returns, in MB, the largest value of the
// runtime's "heap live after the last mark" gauge seen while it ran. The
// watcher only reads a gauge every 2 ms, and fn here is single-threaded on a
// 2-proc process, so it takes nothing from fn.
func peakHeapLive(fn func()) float64 {
	stop := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var seen uint64
		for {
			select {
			case <-stop:
				peak <- seen
				return
			case <-tick.C:
				rtmetrics.Read(sample)
				if sample[0].Value.Kind() == rtmetrics.KindUint64 {
					seen = max(seen, sample[0].Value.Uint64())
				}
			}
		}
	}()
	fn()
	close(stop)
	return float64(<-peak) / 1e6
}

// probe reads the per-variant call times off the traced spans, counts the
// events of one op on a one-LP engine (bit-identical to serial, but it
// keeps counters), and times the fabric, MPI and event layers alone.
func (m *modelInst) probe(p *probeCtx) {
	var ref, opt []float64
	for _, v := range m.variants {
		xs := p.spanMS("core.Modeled/" + v.label)
		if v.variant.Name == "ref" {
			ref = append(ref, xs...)
		} else {
			opt = append(opt, xs...)
		}
	}
	p.set("core.modeled_ref_ms", median(ref))
	p.set("core.modeled_opt_ms", median(opt))

	var events int64
	sp := p.root.child("probe.core.Modeled/events")
	for _, v := range m.variants {
		var st des.ParallelStats
		spec := m.spec(v)
		spec.Met, spec.LPs, spec.Stats = nil, 1, &st
		if _, err := core.Modeled(spec); err != nil {
			p.fail(err)
		}
		events += st.TotalEvents()
	}
	sp.finish()
	p.set("des.events_per_op", float64(events))

	probeTofu(p)
	probeMPI(p)
	probeDES(p)
}
