// Package sim drives the functional MD simulation over the simulated Fugaku
// machine: per-rank LAMMPS-style state advanced bulk-synchronously, with
// ghost-region communication executed through the MPI or uTofu transport of
// the selected code variant and all stage times accumulated in virtual
// seconds. Physics is real — atoms, forces and energies are computed and
// exchanged — while time comes from the calibrated fabric and cost models.
package sim

import (
	"fmt"
	"math"
	"sort"

	"tofumd/internal/des"
	"tofumd/internal/faultinject"
	"tofumd/internal/halo"
	"tofumd/internal/health"
	"tofumd/internal/machine"
	"tofumd/internal/md/atom"
	"tofumd/internal/md/domain"
	"tofumd/internal/md/integrate"
	"tofumd/internal/md/lattice"
	"tofumd/internal/md/potential"
	"tofumd/internal/metrics"
	"tofumd/internal/mpi"
	"tofumd/internal/threadpool"
	"tofumd/internal/tofu"
	"tofumd/internal/topo"
	"tofumd/internal/trace"
	"tofumd/internal/units"
	"tofumd/internal/utofu"
	"tofumd/internal/vec"
)

// Config describes one simulation run (the knobs of Table 2).
type Config struct {
	// UnitsStyle selects lj or metal units.
	UnitsStyle units.Style
	// Potential is the force field; single species.
	Potential potential.Pair
	// Cells is the FCC lattice block shape.
	Cells vec.I3
	// Lat is the lattice geometry (FCC for the paper's benchmarks, diamond
	// for Tersoff silicon).
	Lat lattice.Lattice
	// Skin is the neighbor skin distance.
	Skin float64
	// Dt overrides the unit style's default timestep when non-zero.
	Dt float64
	// NeighEvery is the neighbor rebuild interval in steps.
	NeighEvery int
	// CheckYes enables the displacement check: rebuilds happen at the
	// interval only if some atom moved beyond half the skin, detected via
	// an allreduce (Table 2's "check yes" for EAM).
	CheckYes bool
	// Temperature is the initial temperature.
	Temperature float64
	// Seed seeds velocity initialization.
	Seed uint64
	// NewtonOn enables Newton's 3rd law (half lists + reverse stage).
	NewtonOn bool
	// ThermoEvery records thermodynamic output every so many steps
	// (0 = never during the run).
	ThermoEvery int
	// ScaleRanks charges collective operations (the check-yes allreduce)
	// at this rank count instead of the actual one; used when a
	// representative torus tile stands in for a larger machine.
	ScaleRanks int
	// Initial, when non-empty, seeds atoms from an explicit snapshot
	// (restart files) instead of generating the lattice. Positions must
	// lie inside the box implied by Cells and Lat.
	Initial []InitAtom
	// RescaleEvery, when positive, applies a velocity-rescale thermostat
	// (LAMMPS `fix temp/rescale`) every so many steps, pulling the system
	// toward RescaleTarget whenever the temperature strays more than
	// RescaleWindow from it. The required global temperature costs one
	// allreduce per application.
	RescaleEvery  int
	RescaleTarget float64
	RescaleWindow float64
}

// InitAtom is one atom of an explicit initial state.
type InitAtom struct {
	ID   int64
	Type int32
	Pos  vec.V3
	Vel  vec.V3
}

// Machine bundles the simulated hardware a Simulation runs on.
type Machine struct {
	Map    *topo.RankMap
	Params tofu.Params
	Cost   machine.CostModel
}

// NewMachine builds a Fugaku-like machine over the given node torus shape:
// 4 ranks per node in 2x2x1 blocks, topology-preserving mapping.
func NewMachine(nodeShape vec.I3) (*Machine, error) {
	return NewMachineMode(nodeShape, topo.MapTopo)
}

// NewMachineMode builds the machine with an explicit rank-placement mode;
// topo.MapLinear is the ablation baseline for the paper's "topo map"
// optimization (section 3.5.3).
func NewMachineMode(nodeShape vec.I3, mode topo.MapMode) (*Machine, error) {
	torus, err := topo.NewTorus3D(nodeShape)
	if err != nil {
		return nil, err
	}
	m, err := topo.NewRankMap(torus, topo.DefaultBlock, mode)
	if err != nil {
		return nil, err
	}
	return &Machine{Map: m, Params: tofu.DefaultParams(), Cost: machine.DefaultCostModel()}, nil
}

// ThermoSample is one recorded thermodynamic output.
type ThermoSample struct {
	Step        int
	Temperature float64
	PEPerAtom   float64
	Pressure    float64
}

// Simulation is a running MD system.
type Simulation struct {
	Cfg Config
	Var Variant
	M   *Machine

	U       units.System
	dec     *halo.Decomposition
	fab     *tofu.Fabric
	uts     *utofu.System
	mpiComm *mpi.Comm
	pool    *threadpool.Pool
	// eng executes the bulk-synchronous halo rounds; its hooks close over
	// the simulation's clocks, VCQ tables and health trackers.
	eng *halo.Engine
	// plan is the halo plan (links, per-rank issue order, rounds); links
	// holds one link per plan link; round the messages of an ad hoc round
	// (border, exchange, piggyback).
	plan  *halo.Plan
	links []link
	round *halo.Round
	// plans holds each planned operation's aimed rounds, one per plan round
	// (haloOp.plan). Forward's first is round: every ad hoc round resets
	// it, and every border advances the epoch anyway.
	plans [numPlans][]*halo.Round
	// tasks holds the bound Engine.Run tasks of every plan's rounds, the
	// ad hoc ones included.
	tasks [numPlans][]*roundTasks
	// epoch is the plan epoch. It advances on every border, TNI re-plan and
	// inbox (re)registration, the three things that move where an aimed
	// message goes; a planned round aimed in an older epoch is aimed again.
	epoch uint64
	// aims and replays count each plan's freshly aimed and replayed rounds.
	aims, replays [numPlans]int

	ranks []*Rank
	// xRegion is each rank's registered position region under the
	// pre-registered scheme: a view of the rank's Atoms.X (positionBytes).
	xRegion []*utofu.MemRegion
	nve     *integrate.NVE
	rec     *trace.Recorder
	met     *simMetrics

	// faults is the fault model attached via SetFaults (nil = fault-free).
	faults *faultinject.Model
	// fb tracks per-neighbor retransmission health for the p2p→3-stage
	// graceful-degradation fallback.
	fb *halo.Fallback
	// health is the fail-stop state machine: links and TNIs move healthy →
	// suspect → quarantined on consecutive retransmit exhaustion. A
	// quarantined link routes via MPI permanently (only ProbeHealth
	// re-arms it); a quarantined TNI triggers a §3.3 re-balance over the
	// survivors.
	health *health.Tracker

	step    int
	shells  int
	ghCut   float64 // ghost cutoff = force cutoff + skin
	density float64 // atoms per volume, for buffer estimates

	// SetupTime is the virtual time spent in setup (registration, initial
	// border/neighbor/force), kept out of the per-step breakdown as LAMMPS
	// does.
	SetupTime float64
	// setupEvents is the fabric's event count at the end of setup, which
	// ParallelStats leaves out the same way.
	setupEvents int64
	// Thermo holds the recorded outputs.
	Thermo []ThermoSample
	// Rebuilds counts neighbor-list rebuilds, setup's included: one per
	// rebuild step, whether NeighEvery alone or the check-yes displacement
	// test called it.
	Rebuilds int
}

// New builds a simulation: atoms are created on their owning ranks,
// velocities initialized, communication plans and buffers set up, and the
// initial border/neighbor/force evaluation performed.
func New(m *Machine, v Variant, cfg Config) (*Simulation, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	if cfg.Potential == nil {
		return nil, fmt.Errorf("sim: no potential configured")
	}
	if cfg.NeighEvery <= 0 {
		return nil, fmt.Errorf("sim: NeighEvery must be positive")
	}
	if _, many := cfg.Potential.(potential.ManyBody); many && !cfg.NewtonOn {
		return nil, fmt.Errorf("sim: many-body potentials require Newton on (half lists)")
	}
	if cfg.Lat == nil {
		return nil, fmt.Errorf("sim: no lattice configured")
	}
	u := units.ForStyle(cfg.UnitsStyle)
	dt := cfg.Dt
	if dt == 0 {
		dt = u.DefaultDt
	}
	cfg.Dt = dt

	box := cfg.Lat.BoxFor(cfg.Cells)
	dec, err := halo.NewDecomposition(box, m.Map.Grid)
	if err != nil {
		return nil, err
	}
	s := &Simulation{
		Cfg:     cfg,
		Var:     v,
		M:       m,
		U:       u,
		dec:     dec,
		fab:     tofu.NewFabric(m.Map, m.Params),
		pool:    threadpool.New(0),
		ghCut:   cfg.Potential.Cutoff() + cfg.Skin,
		density: float64(cfg.Lat.Count(cfg.Cells)) / (box.X * box.Y * box.Z),
	}
	s.uts = utofu.NewSystem(s.fab)
	s.mpiComm = mpi.NewComm(s.fab)
	s.mpiComm.CombineLength = v.CombineLength
	s.fb = halo.NewFallback(fallbackK)
	s.health = health.New(0, 0)
	s.health.SetTNITotal(m.Params.TNIsPerNode)
	s.shells = dec.ShellsFor(s.ghCut)
	s.plan = halo.NewPlan(m.Map, v.Pattern, s.shells, s.sendDirs())
	s.nve = &integrate.NVE{Dt: dt, Mass: cfg.Potential.Mass(), Mvv2e: u.Mvv2e}
	s.eng = s.newEngine()

	// The ghost region may span several sub-boxes (multi-shell exchange,
	// including a rank's own periodic image), but the force cutoff must
	// respect minimum image: below half the box on every axis.
	for axis := 0; axis < 3; axis++ {
		if cfg.Potential.Cutoff() >= box.Comp(axis)/2 {
			return nil, fmt.Errorf(
				"sim: force cutoff %.3f violates minimum image on axis %d (box %.3f)",
				cfg.Potential.Cutoff(), axis, box.Comp(axis))
		}
	}

	s.createRanks()
	s.initVelocities()
	s.createLinks()
	s.assignResources()
	if err := s.setupTransport(); err != nil {
		return nil, err
	}
	s.setupRun()
	st, _ := s.fab.ParallelStats()
	s.setupEvents = st.TotalEvents()
	return s, nil
}

// SetRecorder attaches an event recorder to the simulation and its transport
// layers. Call it after New so the setup rounds (whose clocks are rewound)
// stay out of the trace; a nil recorder detaches tracing.
func (s *Simulation) SetRecorder(rec *trace.Recorder) {
	s.rec = rec
	s.fab.Rec = rec
	s.mpiComm.Rec = rec
	s.health.SetRecorder(rec)
	s.mpiComm.Now = s.Now
	if rec == nil {
		s.mpiComm.Now = nil
	}
}

// Now returns the simulation's current virtual time: the slowest rank's
// clock, the frontier of the bulk-synchronous run.
func (s *Simulation) Now() float64 {
	var t float64
	for _, r := range s.ranks {
		if r.Clock > t {
			t = r.Clock
		}
	}
	return t
}

// SetFaults attaches a fault model to the simulation's fabric. Call it
// after New so the setup rounds (registration, initial border exchange)
// stay fault-free, mirroring how SetRecorder/SetMetrics keep setup out of
// their outputs; a nil model detaches injection.
func (s *Simulation) SetFaults(m *faultinject.Model) {
	s.faults = m
	s.fab.Faults = m
}

// ParallelStats returns the events the fabric ran since setup ended; ok is
// always true (see tofu.Fabric.ParallelStats).
func (s *Simulation) ParallelStats() (des.ParallelStats, bool) {
	st, ok := s.fab.ParallelStats()
	st.Events -= s.setupEvents
	return st, ok
}

// Health exposes the fail-stop health tracker for observability and tests.
func (s *Simulation) Health() *health.Tracker { return s.health }

// FailedRanks returns the ranks the fault model marks fail-stopped at the
// simulation's current virtual time — the perfect failure detector the
// checkpoint-rollback driver polls at step boundaries.
func (s *Simulation) FailedRanks() []int {
	return s.faults.FailedRanks(s.Now())
}

// replanTNIs re-runs the §3.3 balance over the surviving TNIs after a TNI
// quarantine (or probe re-arm) and moves the uTofu transport with it: each
// rank's VCQs follow its links' new TNI assignment (syncVCQs).
// The link graph is untouched — only the resources behind it move.
func (s *Simulation) replanTNIs() {
	s.epoch++
	s.assignResources()
	if s.met != nil {
		s.met.tniReplans.Inc()
	}
	if s.Var.Transport != halo.TransportUTofu {
		return
	}
	for _, r := range s.ranks {
		if err := s.syncVCQs(r); err != nil {
			panic(err.Error())
		}
	}
}

// syncVCQs makes rank r hold a VCQ on exactly the TNIs its links are
// assigned (its send links' fwd side, its receive links' rev side): in
// ascending TNI order it frees the VCQs on any other TNI (a quarantined or
// no longer used one) and creates the missing ones.
func (s *Simulation) syncVCQs(r *Rank) error {
	need := make([]bool, s.M.Params.TNIsPerNode)
	for _, l := range r.sendLinks {
		need[l.fwd.TNI] = true
	}
	for _, l := range r.recvLinks {
		need[l.rev.TNI] = true
	}
	for tni, ok := range need {
		vcq := r.vcqByTNI[tni]
		switch {
		case !ok && vcq != nil:
			if err := s.uts.FreeVCQ(vcq); err != nil {
				return fmt.Errorf("sim: rank %d: %w", r.ID, err)
			}
			r.vcqByTNI[tni] = nil
		case ok && vcq == nil:
			vcq, err := s.uts.CreateVCQ(r.ID, tni)
			if err != nil {
				return fmt.Errorf("sim: rank %d: %w", r.ID, err)
			}
			r.vcqByTNI[tni] = vcq
		}
	}
	return nil
}

// ProbeHealth actively probes every quarantined resource against the fault
// model — the explicit re-arm path (quarantine never clears on its own,
// not even on a border plan rebuild). A probe finds a resource alive only
// if the fault model says so at the current virtual time; re-armed TNIs
// re-enter the balance via an immediate re-plan.
func (s *Simulation) ProbeHealth() {
	now := s.Now()
	for _, k := range s.health.QuarantinedLinks() {
		alive := !(s.faults.LinkFailed(k.Src, k.Dst, now) ||
			s.faults.RankFailed(k.Src, now) || s.faults.RankFailed(k.Dst, now))
		s.health.ProbeLink(k.Src, k.Dst, alive, now)
	}
	rearmed := false
	for _, tni := range s.health.QuarantinedTNIs() {
		if !s.faults.TNIFailed(tni, now) {
			s.health.ProbeTNI(tni, true, now)
			rearmed = true
		}
	}
	if rearmed {
		s.replanTNIs()
	}
}

// simMetrics caches the simulation's stage-level metric handles. Stage
// histograms and imbalance gauges are created lazily per stage name (the
// set is small and fixed by the step sequence).
type simMetrics struct {
	reg       *metrics.Registry
	stageHist map[string]*metrics.Histogram
	imbalance map[string]*metrics.Gauge
	// Graceful-degradation fallback counters (fault injection only).
	fallbackMsgs, fallbackRounds *metrics.Counter
	// tniReplans counts mid-run §3.3 re-balances after a TNI quarantine.
	tniReplans *metrics.Counter
}

// SetMetrics attaches a metrics registry to the simulation and all its
// layers (fabric, uTofu, MPI, thread pool). Like SetRecorder, call it after
// New so setup rounds stay out of the aggregates; a nil registry detaches
// collection everywhere. Metrics never alter virtual time: stage breakdowns
// are bit-identical with metrics on or off.
func (s *Simulation) SetMetrics(reg *metrics.Registry) {
	s.fab.SetMetrics(reg)
	s.uts.SetMetrics(reg)
	s.mpiComm.SetMetrics(reg)
	s.pool.SetMetrics(reg)
	s.health.SetMetrics(reg)
	if !reg.Enabled() {
		s.met = nil
		return
	}
	s.met = &simMetrics{
		reg:            reg,
		stageHist:      map[string]*metrics.Histogram{},
		imbalance:      map[string]*metrics.Gauge{},
		fallbackMsgs:   reg.Counter("sim_p2p_fallback", "msgs"),
		fallbackRounds: reg.Counter("sim_p2p_fallback", "rounds"),
		tniReplans:     reg.Counter("sim_tni_replans", "total"),
	}
}

// observeStage records every rank's virtual-time advance of one stage
// invocation and refreshes the coarse stage's cumulative load-imbalance
// gauge (max/mean over ranks of the per-rank stage total).
func (m *simMetrics) observeStage(name string, stage trace.Stage, dts []float64, ranks []*Rank) {
	h := m.stageHist[name]
	if h == nil {
		h = m.reg.Histogram("sim_stage_seconds", name)
		m.stageHist[name] = h
	}
	for _, dt := range dts {
		h.Observe(dt)
	}
	var max, sum float64
	for _, r := range ranks {
		t := r.BD.Get(stage)
		if t > max {
			max = t
		}
		sum += t
	}
	if mean := sum / float64(len(ranks)); mean > 0 {
		g := m.imbalance[stage.String()]
		if g == nil {
			g = m.reg.Gauge("sim_stage_imbalance", stage.String())
			m.imbalance[stage.String()] = g
		}
		g.Set(max / mean)
	}
}

// Close releases the host thread pool.
func (s *Simulation) Close() {
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
	}
}

// Ranks returns the per-rank states (read-only use).
func (s *Simulation) Ranks() []*Rank { return s.ranks }

// Decomp exposes the domain decomposition.
func (s *Simulation) Decomp() *halo.Decomposition { return s.dec }

// TotalAtoms sums local atoms over ranks.
func (s *Simulation) TotalAtoms() int {
	n := 0
	for _, r := range s.ranks {
		n += r.Atoms.NLocal
	}
	return n
}

// Gather returns every local atom of every rank sorted by global ID: the
// decomposition-independent state that checkpoints, dumps and the physics
// oracles read.
func (s *Simulation) Gather() []InitAtom {
	out := make([]InitAtom, 0, s.TotalAtoms())
	for _, r := range s.ranks {
		a := r.Atoms
		for i := 0; i < a.NLocal; i++ {
			out = append(out, InitAtom{ID: a.ID[i], Type: a.Type[i], Pos: a.X[i], Vel: a.V[i]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MaxDisplacement returns the largest |Δx| between two gathers of the same
// atoms, or +Inf when they do not hold the same atom IDs.
func MaxDisplacement(a, b []InitAtom) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var worst float64
	for i := range a {
		if a[i].ID != b[i].ID {
			return math.Inf(1)
		}
		worst = max(worst, b[i].Pos.Sub(a[i].Pos).Norm())
	}
	return worst
}

// Breakdowns returns the per-rank stage breakdowns.
func (s *Simulation) Breakdowns() []*trace.Breakdown {
	out := make([]*trace.Breakdown, len(s.ranks))
	for i, r := range s.ranks {
		out[i] = r.BD
	}
	return out
}

// ElapsedMax returns the slowest rank's total virtual time (wall clock of
// the bulk-synchronous run).
func (s *Simulation) ElapsedMax() float64 {
	return trace.MaxTotal(s.Breakdowns())
}

func (s *Simulation) createRanks() {
	n := s.M.Map.Ranks()
	s.ranks = make([]*Rank, n)
	s.forRanks(func(id int) {
		coord := s.M.Map.RankCoord(id)
		lo, hi := s.dec.SubBox(coord)
		r := &Rank{
			ID:       id,
			Coord:    coord,
			Lo:       lo,
			Hi:       hi,
			Atoms:    atom.New(64),
			BD:       &trace.Breakdown{},
			vcqByTNI: make([]*utofu.VCQ, s.M.Params.TNIsPerNode),
		}
		if len(s.Cfg.Initial) > 0 {
			for _, ia := range s.Cfg.Initial {
				// Positions may have drifted past the boundary since the
				// last reneighboring; wrap before assigning ownership.
				x := s.dec.WrapPosition(ia.Pos)
				if x.X >= lo.X && x.X < hi.X &&
					x.Y >= lo.Y && x.Y < hi.Y &&
					x.Z >= lo.Z && x.Z < hi.Z {
					r.Atoms.AddLocal(ia.ID, ia.Type, x, ia.Vel)
				}
			}
		} else {
			sites := s.Cfg.Lat.SitesInRegion(s.Cfg.Cells, lo, hi)
			for _, site := range sites {
				vel := lattice.Velocity(site.ID, s.Cfg.Temperature,
					s.Cfg.Potential.Mass(), s.U.Boltz, s.U.Mvv2e, s.Cfg.Seed)
				r.Atoms.AddLocal(site.ID, 1, site.Pos, vel)
			}
		}
		if _, ok := s.Cfg.Potential.(potential.ManyBody); ok {
			r.Atoms.EnableEAM()
		}
		r.qual = domain.NewSendQualifier(lo, hi, s.dec.Side(), s.ghCut, s.shells)
		r.binOK = s.Var.BorderBins && r.qual.BinsUsable()
		if r.binOK {
			r.binDirs = r.qual.BinDirections(s.sendDirs())
		}
		r.exchScratch = map[int][]exchRecord{}
		// Theoretical maximum atoms this rank may hold (locals + ghost
		// shell), the pre-registration sizing of section 3.4.
		side := s.dec.Side()
		volLocal := side.X * side.Y * side.Z
		g := 2 * s.ghCut
		volAll := (side.X + g) * (side.Y + g) * (side.Z + g)
		r.maxAtomsEstimate = int(s.density*volAll*1.5) + int(s.density*volLocal) + 64
		s.ranks[id] = r
	})
}

// forRanks executes fn for every rank id in parallel on the host pool.
func (s *Simulation) forRanks(fn func(id int)) {
	s.pool.ForEach(s.M.Map.Ranks(), fn)
}

// initVelocities removes the net momentum (all atoms share one mass). A
// restarted state is taken verbatim.
func (s *Simulation) initVelocities() {
	if len(s.Cfg.Initial) > 0 {
		return
	}
	var p vec.V3
	var n float64
	for _, r := range s.ranks {
		for i := 0; i < r.Atoms.NLocal; i++ {
			p = p.Add(r.Atoms.V[i])
		}
		n += float64(r.Atoms.NLocal)
	}
	if n == 0 {
		return
	}
	mean := p.Scale(1 / n)
	s.forRanks(func(id int) {
		r := s.ranks[id]
		for i := 0; i < r.Atoms.NLocal; i++ {
			r.Atoms.V[i] = r.Atoms.V[i].Sub(mean)
		}
	})
}

// sendDirs returns the neighbor directions a rank sends ghosts to under the
// p2p pattern: the lower half with Newton on and a half list; the full shell
// when Newton is off or the potential needs a full neighbor list
// (Tersoff-class, section 4.4).
func (s *Simulation) sendDirs() []vec.I3 {
	return halo.SendDirections(s.shells, s.Cfg.NewtonOn && !s.Cfg.Potential.NeedsFullList())
}

// createLinks builds the static link graph from the halo plan: one link per
// plan link, each rank's send and receive lists in the plan's issue order.
func (s *Simulation) createLinks() {
	s.links = make([]link, len(s.plan.Links))
	for i, sp := range s.plan.Links {
		src, dst := s.ranks[sp.Src], s.ranks[sp.Dst]
		s.links[i] = link{id: i, spec: sp, src: src, dst: dst, shift: s.dec.PBCShift(src.Coord, sp.Dir)}
	}
	for _, r := range s.ranks {
		for _, i := range s.plan.Send[r.ID] {
			r.sendLinks = append(r.sendLinks, &s.links[i])
		}
		for _, i := range s.plan.Recv[r.ID] {
			r.recvLinks = append(r.recvLinks, &s.links[i])
		}
	}
	s.round = halo.NewRound(len(s.ranks))
	for p := fwdPlan; p < numPlans; p++ {
		s.plans[p] = make([]*halo.Round, len(s.plan.Rounds))
		for i := range s.plans[p] {
			s.plans[p][i] = halo.NewRound(len(s.ranks))
		}
	}
	s.plans[fwdPlan][0] = s.round
	for p := adHoc; p < numPlans; p++ {
		s.tasks[p] = make([]*roundTasks, len(s.plan.Rounds))
		for i := range s.tasks[p] {
			s.tasks[p][i] = s.bindRound(s.opRound(p, i))
		}
	}
}

// assignResources runs the plan's resource assignment over the TNIs the
// health tracker has not quarantined: at setup that is the machine's full
// set; the fail-stop recovery path re-invokes it after a quarantine,
// re-running the §3.3 balancer and moving each link's TNI and thread
// mid-run.
func (s *Simulation) assignResources() {
	tnis := halo.SurvivingTNIs(s.M.Params.TNIsPerNode, s.health.TNIQuarantined)
	side := s.dec.Side()
	fwd, rev := s.plan.Assign(s.Var.TNIPolicy, tnis, s.Var.CommThreads, halo.Balance{
		Side: (side.X + side.Y + side.Z) / 3, Cutoff: s.ghCut, Density: s.density,
		AtomBytes: borderBytes,
		Bandwidth: s.M.Params.LinkBandwidth, HopLatency: s.M.Params.HopLatency,
	})
	for i := range s.links {
		s.links[i].fwd.Res, s.links[i].rev.Res = fwd[i], rev[i]
	}
}

// setupTransport allocates VCQs, inboxes and registered regions: under the
// pre-registered scheme, each rank's position array as well.
func (s *Simulation) setupTransport() error {
	if s.Var.Transport != halo.TransportUTofu {
		return nil
	}
	for _, r := range s.ranks {
		if err := s.syncVCQs(r); err != nil {
			return err
		}
	}
	// Inboxes: forward inbox on dst, reverse inbox on src.
	s.xRegion = make([]*utofu.MemRegion, len(s.ranks))
	for _, r := range s.ranks {
		for _, l := range r.sendLinks {
			fwd, rev := &l.fwd.inbox, &l.rev.inbox
			if s.Var.Preregistered {
				// Sized to the theoretical maximum once (section 3.4):
				// no mid-run expansion, ever.
				vol := halo.MessageVolumeAniso(l.spec.Dir, s.dec.Side(), s.ghCut)
				maxAtoms := int(vol*s.density*1.5) + 16
				s.SetupTime += s.registerInbox(fwd, l.dst.ID, maxAtoms*borderBytes)
				s.SetupTime += s.registerInbox(rev, l.src.ID, maxAtoms*borderBytes)
			} else {
				// Default-size buffers registered during setup, like the
				// baseline; they re-register whenever a bigger message
				// forces an expansion mid-run.
				s.SetupTime += s.registerInbox(fwd, l.dst.ID, initialInboxBytes)
				s.SetupTime += s.registerInbox(rev, l.src.ID, initialInboxBytes)
			}
		}
		if s.Var.Preregistered {
			// The position array itself is registered (section 3.4): X is
			// reserved to the theoretical maximum, and the region is its
			// byte view, so a forward put lands in the ghost slots.
			a := r.Atoms
			if cap(a.X) < r.maxAtomsEstimate {
				a.X = append(make([]vec.V3, 0, r.maxAtomsEstimate), a.X...)
			}
			region, cost := s.uts.Register(r.ID, r.positionBytes())
			s.xRegion[r.ID] = region
			s.SetupTime += cost
		}
	}
	return nil
}

// initialInboxBytes is the default receive-buffer size of the non-pre-
// registered uTofu variants (LAMMPS's BUFMIN-style initial allocation).
const initialInboxBytes = 1 << 12

// setupRun performs the initial border + neighbor build + force evaluation
// outside the timed step loop, as LAMMPS's setup() does: a rebuild step's
// force sequence, without final integration. No recorder or registry is
// attached yet, so its stages emit nothing.
func (s *Simulation) setupRun() {
	clocks := s.snapshotClocks()
	s.forceSequence(true, nil)
	// Setup time is the slowest rank's advance; rewind the breakdown.
	var maxAdv float64
	for i, r := range s.ranks {
		maxAdv = max(maxAdv, r.Clock-clocks[i])
		r.Clock = clocks[i]
		*r.BD = trace.Breakdown{}
	}
	s.SetupTime += maxAdv
	if s.Cfg.ThermoEvery >= 0 {
		s.recordThermo(false)
	}
}

func (s *Simulation) snapshotClocks() []float64 {
	out := make([]float64, len(s.ranks))
	for i, r := range s.ranks {
		out[i] = r.Clock
	}
	return out
}
