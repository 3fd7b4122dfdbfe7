package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"time"

	"tofumd/internal/core"
	"tofumd/internal/md/atom"
	"tofumd/internal/md/integrate"
	"tofumd/internal/md/neighbor"
	"tofumd/internal/md/potential"
	"tofumd/internal/md/sim"
	"tofumd/internal/metrics"
	"tofumd/internal/threadpool"
	"tofumd/internal/trace"
	"tofumd/internal/vec"
)

// mdShape sizes one functional MD workload.
type mdShape struct {
	kind       core.Kind
	atoms      int
	tile       vec.I3
	stepsPerOp int
	// probeFullList adds the full-list kernel probes and the 1-vs-2-proc
	// comparison (the kernel-bound workload); probeCommStack adds the halo,
	// utofu and threadpool probes (the comm-bound one).
	probeFullList, probeCommStack bool
}

func (s mdShape) spec(reg *metrics.Registry) core.RunSpec {
	return core.RunSpec{
		Workload: core.Workload{
			Name: fmt.Sprintf("%s-%d", s.kind, s.atoms), Kind: s.kind,
			Atoms: s.atoms, FullShape: s.tile, Steps: 1 << 30,
		},
		TileShape:   s.tile,
		Variant:     sim.Opt(),
		ParallelLPs: 1, // the mdsim default
		Metrics:     reg,
	}
}

// mdInst is a started functional run stepped op by op.
type mdInst struct {
	shape    mdShape
	fixedOps int
	reg      *metrics.Registry
	r        *core.Running
	atoms0   int
	e0       float64
	haveE0   bool
	prevSec  float64

	timed      bool
	start, end mdReading
	haveEnd    bool
}

// mdReading is the exact state read at the two ends of the fixed ops.
type mdReading struct {
	elapsed  float64
	comm     float64
	total    float64
	rebuilds int
	events   int64
	// locals, ghosts and pairs are summed over ranks (the lists are the
	// simulation's own, read only).
	locals, ghosts, pairs int
	counts                map[string]float64
}

// mdCounters maps the per-op count metrics onto registry families.
var mdCounters = map[string]string{
	"utofu.puts_per_op":         "utofu_ops/put",
	"utofu.put_bytes_per_op":    "utofu_bytes/put",
	"mpi.msgs_per_op":           "mpi_p2p/msgs",
	"mpi.bytes_per_op":          "mpi_p2p/bytes",
	"tofu.transfers_per_op":     "fabric_tni_msgs/*",
	"tofu.bytes_per_op":         "fabric_tni_bytes/*",
	"threadpool.regions_per_op": "pool_regions/dispatched",
}

func buildMD(shape mdShape) func(e *env, w *workload) (instance, error) {
	return func(e *env, w *workload) (instance, error) {
		sp := e.root.child("core.Start")
		r, err := core.Start(shape.spec(e.reg))
		sp.finish()
		if err != nil {
			return nil, err
		}
		return &mdInst{shape: shape, fixedOps: w.fixedOps, reg: e.reg, r: r, atoms0: r.Sim().TotalAtoms()}, nil
	}
}

func (m *mdInst) run(_, _ int, op *span) {
	for s := 0; s < m.shape.stepsPerOp; s++ {
		sp := op.child("core.Step")
		m.r.Step()
		sp.finish()
	}
}

func (m *mdInst) check(_, i int) (opVirt, error) {
	s := m.r.Sim()
	e := s.TotalEnergyPerAtom()
	if !m.haveE0 {
		m.e0, m.haveE0 = e, true
	}
	now := s.ElapsedMax()
	v := opVirt{sec: now - m.prevSec}
	m.prevSec = now
	h := fnv.New64a()
	bd := trace.Merge(s.Breakdowns())
	for _, st := range trace.Stages() {
		fmt.Fprintf(h, "%x,", math.Float64bits(bd.Get(st)))
	}
	fmt.Fprintf(h, "%x,%x,%d", math.Float64bits(now), math.Float64bits(e), s.TotalAtoms())
	v.hash = h.Sum64()
	if m.timed && i == m.fixedOps-1 {
		m.end, m.haveEnd = m.reading(), true
	}
	switch {
	case s.TotalAtoms() != m.atoms0:
		return v, fmt.Errorf("atom count %d, started with %d", s.TotalAtoms(), m.atoms0)
	case math.IsNaN(e) || math.IsInf(e, 0):
		return v, fmt.Errorf("energy per atom is %v", e)
	case math.Abs(e-m.e0) >= 1e-2*math.Abs(m.e0):
		return v, fmt.Errorf("energy per atom drifted from %g to %g", m.e0, e)
	}
	return v, nil
}

func (m *mdInst) beginTimed() {
	m.timed = true
	m.start = m.reading()
}

func (m *mdInst) reading() mdReading {
	s := m.r.Sim()
	bd := trace.Merge(s.Breakdowns())
	rd := mdReading{
		elapsed:  s.ElapsedMax(),
		comm:     bd.Get(trace.Comm),
		total:    bd.Total(),
		rebuilds: s.Rebuilds,
	}
	if st, ok := s.ParallelStats(); ok {
		rd.events = st.TotalEvents()
	}
	for _, rk := range s.Ranks() {
		rd.locals += rk.Atoms.NLocal
		rd.ghosts += rk.Atoms.NGhost
		rd.pairs += rk.NL.Pairs()
	}
	if m.reg != nil {
		rd.counts = map[string]float64{}
		for name, fam := range mdCounters {
			rd.counts[name] = counterSum(m.reg, fam)
		}
	}
	return rd
}

func (m *mdInst) extras() map[string]float64 {
	if !m.haveEnd {
		return nil
	}
	n := float64(m.fixedOps)
	a, b := m.start, m.end
	out := map[string]float64{
		"virt.comm_frac":      (b.comm - a.comm) / (b.total - a.total),
		"virt.perf_per_day":   core.PerfPerDay(m.shape.kind, m.fixedOps*m.shape.stepsPerOp, m.r.Dt(), b.elapsed-a.elapsed),
		"sim.rebuilds_per_op": float64(b.rebuilds-a.rebuilds) / n,
		"des.events_per_op":   float64(b.events-a.events) / n,
	}
	out["sim.ghosts_per_local"] = float64(b.ghosts) / float64(b.locals)
	out["neighbor.pairs_per_atom"] = float64(b.pairs) / float64(b.locals)
	for name := range b.counts {
		out[name] = (b.counts[name] - a.counts[name]) / n
	}
	return out
}

func (m *mdInst) close() { m.r.Close() }

// counterSum reads a counter by "family/label"; label "*" sums the family.
func counterSum(reg *metrics.Registry, key string) float64 {
	fam, label, _ := strings.Cut(key, "/")
	if label != "*" {
		return float64(reg.Counter(fam, label).Value())
	}
	var sum float64
	for _, f := range reg.Snapshot() {
		if f.Name == fam {
			for _, s := range f.Samples {
				sum += s.Value
			}
		}
	}
	return sum
}

// copyRanks copies every rank's atoms (locals, then ghosts) into fresh
// storage, so a probe never touches the run it sampled.
func copyRanks(s *sim.Simulation, eam bool) []*atom.Arrays {
	ranks := s.Ranks()
	out := make([]*atom.Arrays, len(ranks))
	for k, rk := range ranks {
		src := rk.Atoms
		a := atom.New(src.NLocal)
		if eam {
			a.EnableEAM()
		}
		for i := 0; i < src.NLocal; i++ {
			a.AddLocal(src.ID[i], src.Type[i], src.X[i], src.V[i])
		}
		for i := src.NLocal; i < src.Total(); i++ {
			a.AddGhost(src.ID[i], src.Type[i], src.X[i])
		}
		out[k] = a
	}
	return out
}

// probe times the MD kernels on copies of the warmed per-rank state: once
// serially for the per-unit costs, once over a host thread pool the way
// sim.forRanks runs them for the share estimates.
func (m *mdInst) probe(p *probeCtx) {
	s := m.r.Sim()
	cfg, err := core.BaseConfig(m.shape.kind)
	if err != nil {
		p.fail(err)
		return
	}
	eam := m.shape.kind == core.EAM
	ghCut := cfg.Potential.Cutoff() + cfg.Skin
	copies := copyRanks(s, eam)
	nr := len(copies)
	var locals int
	for _, a := range copies {
		locals += a.NLocal
	}
	pool := threadpool.New(0)
	defer pool.Close()
	serial := func(fn func(k int)) func() {
		return func() {
			for k := 0; k < nr; k++ {
				fn(k)
			}
		}
	}
	pooled := func(fn func(k int)) func() { return func() { pool.ForEach(nr, fn) } }

	// neighbor: the half-shell list the opt variant uses.
	lists := make([]*neighbor.List, nr)
	build := func(k int) { lists[k] = neighbor.Build(copies[k], ghCut, neighbor.HalfShell) }
	tBuild := p.timeIt("neighbor.Build", serial(build))
	tBuildPool := p.timeIt("neighbor.Build/pool", pooled(build))
	var pairs int
	for _, l := range lists {
		pairs += l.Pairs()
	}
	p.set("neighbor.build_ns_per_atom", tBuild*1e9/float64(locals))

	// potential: the workload's own kernel on those lists.
	force := func(k int) {
		copies[k].ZeroForces()
		cfg.Potential.Compute(copies[k], lists[k])
	}
	if mb, ok := cfg.Potential.(potential.ManyBody); ok {
		// The three passes as the driver runs them, minus the two in-pair
		// exchanges between them (ghost Fp stays zero: same work per pair).
		force = func(k int) {
			a := copies[k]
			a.ZeroForces()
			a.ZeroRho()
			mb.AccumulateRho(a, lists[k])
			mb.FinishRho(a)
			mb.ComputeForce(a, lists[k])
		}
	}
	name := "potential.LJ.Compute"
	if eam {
		name = "potential.EAM.Compute"
	}
	tForce := p.timeIt(name, serial(force))
	tForcePool := p.timeIt(name+"/pool", pooled(force))
	if eam {
		p.set("potential.eam_ns_per_pair", tForce*1e9/float64(pairs))
	} else {
		p.set("potential.lj_ns_per_pair", tForce*1e9/float64(pairs))
	}

	// The full-list path (Newton off) is the other use of the LJ kernel; no
	// workload times it end to end, so the dense LJ workload guards it.
	if m.shape.probeFullList {
		full := make([]*neighbor.List, nr)
		tFull := p.timeIt("neighbor.Build/full", serial(func(k int) {
			full[k] = neighbor.Build(copies[k], ghCut, neighbor.Full)
		}))
		var fullPairs int
		for _, l := range full {
			fullPairs += l.Pairs()
		}
		lj := potential.NewLJ(1, 1, 2.5)
		lj.FullList = true
		tLJFull := p.timeIt("potential.LJ.Compute/full", serial(func(k int) {
			copies[k].ZeroForces()
			lj.Compute(copies[k], full[k])
		}))
		p.set("neighbor.build_full_ns_per_atom", tFull*1e9/float64(locals))
		p.set("potential.lj_full_ns_per_pair", tLJFull*1e9/float64(fullPairs))
	}

	// integrate: both half-steps, last because it moves the copies.
	nve := &integrate.NVE{Dt: cfg.Dt, Mass: cfg.Potential.Mass(), Mvv2e: s.U.Mvv2e}
	integ := func(k int) {
		nve.InitialIntegrate(copies[k])
		nve.FinalIntegrate(copies[k])
	}
	tInteg := p.timeIt("integrate.NVE", serial(integ))
	tIntegPool := p.timeIt("integrate.NVE/pool", pooled(integ))
	p.set("integrate.ns_per_atom", tInteg*1e9/float64(locals))

	// Shares of the untraced op: pooled all-ranks time x calls per op.
	opS := p.opP50ms / 1e3
	steps := float64(m.shape.stepsPerOp)
	potShare := tForcePool * steps / opS
	neighShare := tBuildPool * p.layer["sim.rebuilds_per_op"] / opS
	integShare := tIntegPool * steps / opS
	p.set("potential.share_est", potShare)
	p.set("neighbor.share_est", neighShare)
	p.set("sim.comm_share_est", 1-potShare-neighShare-integShare)
	p.set("core.ns_per_atom_step", p.opP50ms*1e6/(float64(m.atoms0)*steps))

	if m.shape.probeFullList {
		m.probeParSpeedup(p)
	}
	if m.shape.probeCommStack {
		probeHalo(p)
		probeUtofu(p)
		probeThreadpool(p)
	}
}

// probeParSpeedup runs three ops of a fresh system at GOMAXPROCS 1 and at 2.
// The host pool is sized at core.Start, so each side builds its own system.
func (m *mdInst) probeParSpeedup(p *probeCtx) {
	const metric = "threadpool.par_speedup"
	if runtime.NumCPU() < 2 {
		p.omit(metric, "host has 1 CPU: a 2-proc run would time-share one core")
		return
	}
	side := func(procs int) (float64, error) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		sp := p.root.child(fmt.Sprintf("probe.par_speedup/procs=%d", procs))
		defer sp.finish()
		inst, err := buildMD(m.shape)(&env{seed: p.e.seed, quick: p.e.quick}, p.w)
		if err != nil {
			return 0, err
		}
		defer inst.close()
		n := 3
		if p.e.quick {
			n = 1
		}
		var xs []float64
		for _, s := range runOps(inst, 1, 1+n, 1, time.Time{}, nil)[1:] {
			if s.err != nil {
				return 0, s.err
			}
			xs = append(xs, s.ms)
		}
		return median(xs), nil
	}
	one, err := side(1)
	if err != nil {
		p.fail(err)
		return
	}
	two, err := side(2)
	if err != nil {
		p.fail(err)
		return
	}
	p.set(metric, one/two)
}
