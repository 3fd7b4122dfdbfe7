package main

import (
	"fmt"
	"runtime"
	"time"

	"tofumd/internal/des"
	"tofumd/internal/halo"
	"tofumd/internal/md/sim"
	"tofumd/internal/mpi"
	"tofumd/internal/threadpool"
	"tofumd/internal/tofu"
	"tofumd/internal/utofu"
	"tofumd/internal/vec"
)

// probeCtx is what a workload's probes write into. A probe times an
// exported function of one layer from outside, on inputs it owns.
type probeCtx struct {
	w    *workload
	e    *env
	root *span
	// layer is the workload's per-layer output; the exact values of the
	// traced pass are already in it when the probes start.
	layer   map[string]float64
	omitted map[string]string
	// opP50ms is the workload's untraced median op time.
	opP50ms float64
	// setupMS is the workload's untraced median set-up time.
	setupMS float64
	// timedFrom is when the traced pass's timed phase began.
	timedFrom time.Duration
	// budget is the least time a probe keeps calling its function.
	budget time.Duration
	errs   []error
}

func (p *probeCtx) set(name string, v float64) { p.layer[name] = v }
func (p *probeCtx) omit(name, why string)      { p.omitted[name] = why }
func (p *probeCtx) fail(err error)             { p.errs = append(p.errs, err) }

// timeIt calls fn, each call under its own span, until the budget is spent,
// at least three times (once in quick mode), and returns the median seconds
// per call.
func (p *probeCtx) timeIt(name string, fn func()) float64 {
	least := 3
	if p.e.quick {
		least = 1
	}
	var xs []float64
	start := time.Now()
	for len(xs) < least || (time.Since(start) < p.budget && len(xs) < 1000) {
		sp := p.root.child("probe." + name)
		t0 := time.Now()
		fn()
		xs = append(xs, time.Since(t0).Seconds())
		sp.finish()
	}
	return median(xs)
}

// spanMS returns the durations, in ms, of this workload's timed-phase spans
// of the given name.
func (p *probeCtx) spanMS(name string) []float64 {
	if p.root == nil {
		return nil
	}
	var xs []float64
	for _, s := range p.root.tr.all() {
		if s.workload == p.w.name && s.name == name && s.op >= 0 && s.start >= p.timedFrom {
			xs = append(xs, ms(s.end-s.start))
		}
	}
	return xs
}

// machine builds the simulated hardware over a node shape.
func (p *probeCtx) machine(shape vec.I3) *sim.Machine {
	m, err := sim.NewMachine(shape)
	if err != nil {
		p.fail(err)
		return nil
	}
	return m
}

// strongShape is the tile of the strong-scaling workload; the comm-stack
// probes run on its rank map.
func strongShape(quick bool) vec.I3 {
	if quick {
		return vec.I3{X: 2, Y: 2, Z: 2}
	}
	return vec.I3{X: 4, Y: 4, Z: 4}
}

// modelShape is the full 768-node allocation of the paper's first
// strong-scaling point.
func modelShape(quick bool) vec.I3 {
	if quick {
		return vec.I3{X: 2, Y: 3, Z: 2}
	}
	return vec.I3{X: 8, Y: 12, Z: 8}
}

// msgBytes is the sub-512 B message size of the strong-scaling regime.
const msgBytes = 256

// probeHalo times the byte codecs and the static plan construction.
func probeHalo(p *probeCtx) {
	const n = 4096
	vs := make([]vec.V3, n)
	fs := make([]float64, n)
	for i := range vs {
		vs[i] = vec.V3{X: float64(i), Y: float64(i) * 0.5, Z: -float64(i)}
		fs[i] = float64(i) * 0.25
	}
	buf := make([]byte, 24*n)
	var sbuf []byte
	var sink vec.V3
	t := p.timeIt("halo.codec", func() {
		for i, v := range vs {
			halo.PutV3(buf[24*i:], v)
		}
		for i := range vs {
			sink = sink.Add(halo.GetV3(buf[24*i:]))
		}
		sbuf = halo.EncodeScalars(sbuf[:0], fs, 0, n)
	})
	runtime.KeepAlive(sink)
	p.set("halo.codec_ns_per_byte", t*1e9/float64(24*n+24*n+8*n))

	m := p.machine(strongShape(p.e.quick))
	if m == nil {
		return
	}
	dirs := halo.HalfDirections(1)
	t = p.timeIt("halo.plan", func() {
		specs := halo.BuildLinkSpecs(m.Map, halo.P2P, 1, dirs)
		links := make([]halo.Link, len(dirs))
		for r := 0; r < m.Map.Ranks(); r++ {
			for i, s := range specs[r*len(dirs) : (r+1)*len(dirs)] {
				links[i] = halo.Link{Dir: s.Dir, Bytes: msgBytes, Hops: m.Map.Hops(s.Src, s.Dst)}
			}
			halo.BalanceThreads(links, 6, m.Params.LinkBandwidth, m.Params.HopLatency)
		}
	})
	p.set("halo.plan_us_per_rank", t*1e6/float64(m.Map.Ranks()))
}

// probeUtofu times one p2p round of one-sided puts: every rank sends 13
// small messages, one per half-shell neighbour, over six VCQs.
func probeUtofu(p *probeCtx) {
	m := p.machine(strongShape(p.e.quick))
	if m == nil {
		return
	}
	fab := tofu.NewFabric(m.Map, m.Params)
	uts := utofu.NewSystem(fab)
	dirs := halo.HalfDirections(1)
	ranks := m.Map.Ranks()
	tnis := m.Params.TNIsPerNode
	regions := make([]*utofu.MemRegion, ranks)
	vcqs := make([][]*utofu.VCQ, ranks)
	for r := 0; r < ranks; r++ {
		regions[r], _ = uts.Register(r, make([]byte, len(dirs)*msgBytes))
		for t := 0; t < tnis; t++ {
			v, err := uts.CreateVCQ(r, t)
			if err != nil {
				p.fail(err)
				return
			}
			vcqs[r] = append(vcqs[r], v)
		}
	}
	payload := make([]byte, msgBytes)
	puts := make([]*utofu.Put, 0, ranks*len(dirs))
	for r := 0; r < ranks; r++ {
		for i, d := range dirs {
			dst := m.Map.NeighborRank(r, d)
			puts = append(puts, &utofu.Put{
				VCQ: vcqs[r][i%tnis], Thread: i % tnis, DstThread: i % tnis,
				DstSTADD: regions[dst].STADD, DstOff: i * msgBytes, Src: payload,
			})
		}
	}
	t := p.timeIt("utofu.ExecuteRound", func() {
		if err := uts.ExecuteRound(puts); err != nil {
			p.fail(err)
		}
	})
	p.set("utofu.round_ns_per_put", t*1e9/float64(len(puts)))
}

// probeThreadpool times the dispatch and join of a region of empty tasks.
func probeThreadpool(p *probeCtx) {
	pool := threadpool.New(0)
	defer pool.Close()
	noop := func(int) {}
	for _, n := range []int{32, 256} {
		const batch = 200
		t := p.timeIt(fmt.Sprintf("threadpool.ForEach/%d", n), func() {
			for i := 0; i < batch; i++ {
				pool.ForEach(n, noop)
			}
		})
		p.set(fmt.Sprintf("threadpool.dispatch_us_%d", n), t*1e6/batch)
	}
}

// faceDirs are rank-grid offsets that cross a node boundary on every axis
// (the node block is 2x2x1 ranks).
var faceDirs = []vec.I3{{X: 2}, {X: -2}, {Y: 2}, {Y: -2}, {Z: 1}, {Z: -1}}

func faceTransfers(m *sim.Machine) []*tofu.Transfer {
	trs := make([]*tofu.Transfer, 0, m.Map.Ranks()*len(faceDirs))
	for src := 0; src < m.Map.Ranks(); src++ {
		for di, d := range faceDirs {
			trs = append(trs, &tofu.Transfer{
				Src: src, Dst: m.Map.NeighborRank(src, d), Bytes: msgBytes,
				Thread: di, TNI: di, VCQ: src<<3 | di,
			})
		}
	}
	return trs
}

// probeTofu times one raw fabric round of six small transfers per rank on
// the full tile, on the serial engine and on two logical processes.
func probeTofu(p *probeCtx) {
	m := p.machine(modelShape(p.e.quick))
	if m == nil {
		return
	}
	trs := faceTransfers(m)
	round := func(fab *tofu.Fabric) func() {
		return func() {
			if err := fab.RunRound(trs, tofu.IfaceUTofu); err != nil {
				p.fail(err)
			}
		}
	}
	serial := p.timeIt("tofu.RunRound", round(tofu.NewFabric(m.Map, m.Params)))
	p.set("tofu.round_ns_per_transfer", serial*1e9/float64(len(trs)))

	const metric = "tofu.round_par2_speedup"
	if runtime.NumCPU() < 2 {
		p.omit(metric, "host has 1 CPU: two logical processes would time-share one core")
		return
	}
	fab := tofu.NewFabric(m.Map, m.Params)
	if err := fab.SetParallel(2); err != nil {
		p.fail(err)
		return
	}
	par := p.timeIt("tofu.RunRound/par2", round(fab))
	p.set(metric, serial/par)
}

// probeMPI times one two-sided round of six small messages per rank.
func probeMPI(p *probeCtx) {
	m := p.machine(strongShape(p.e.quick))
	if m == nil {
		return
	}
	c := mpi.NewComm(tofu.NewFabric(m.Map, m.Params))
	payload := make([]byte, msgBytes)
	var msgs []*mpi.Message
	for src := 0; src < m.Map.Ranks(); src++ {
		for di, d := range faceDirs {
			msgs = append(msgs, &mpi.Message{
				Src: src, Dst: m.Map.NeighborRank(src, d), Tag: di, Data: payload, KnownLength: true,
			})
		}
	}
	t := p.timeIt("mpi.ExchangeRound", func() { c.ExchangeRound(msgs) })
	p.set("mpi.round_ns_per_msg", t*1e9/float64(len(msgs)))
}

// probeDES times the event engine alone: 16k root events, each cascading
// three follow-ups, 64k events per call. The closures are built once so the
// number is the engine's, not the allocator's.
func probeDES(p *probeCtx) {
	const roots, depth = 16384, 3
	var e des.Engine
	type cascade struct {
		at   float64
		left int
		fn   func()
	}
	cs := make([]cascade, roots)
	for i := range cs {
		c := &cs[i]
		c.fn = func() {
			if c.left > 0 {
				c.left--
				c.at += 1e-7
				e.Schedule(c.at, c.fn)
			}
		}
	}
	t := p.timeIt("des.Run", func() {
		for i := range cs {
			cs[i].at, cs[i].left = float64(i&1023)*1e-8, depth
			e.Schedule(cs[i].at, cs[i].fn)
		}
		e.Run()
		e.Reset()
	})
	p.set("des.ns_per_event", t*1e9/float64(roots*(depth+1)))
}
