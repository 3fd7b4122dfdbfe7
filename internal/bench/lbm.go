package bench

import (
	"fmt"
	"math"

	"tofumd/internal/halo"
	"tofumd/internal/lbm"
	"tofumd/internal/md/sim"
	"tofumd/internal/vec"
)

// LbmResult measures the halo library's first non-MD consumer: a D3Q19
// lattice-Boltzmann stencil exchanging its face planes through the same
// staged uTofu fabric as the MD halo. The headline series is the
// blocking-vs-overlap ablation (how much exchange latency the interior
// collision hides); physics correctness (viscosity, conservation) and the
// bit-identity contract ride along as gates.
type LbmResult struct {
	Nodes, Ranks int
	Cells        vec.I3
	Steps        int

	// BlockingElapsed and OverlapElapsed are the max virtual clock over
	// ranks after Steps steps, uTofu transport.
	BlockingElapsed, OverlapElapsed float64
	// OverlapGain is the fraction of the blocking time the overlap variant
	// hides: (blocking-overlap)/blocking.
	OverlapGain float64
	// MPIElapsed is the blocking run on the two-sided fallback transport.
	MPIElapsed float64
	// UTofuSpeedup is MPIElapsed/BlockingElapsed.
	UTofuSpeedup float64
	// SetupTime is the one-off uTofu VCQ + inbox registration cost.
	SetupTime float64

	// MassDrift is the relative mass change over the blocking run (exact
	// conservation: should sit at rounding noise).
	MassDrift float64
	// NuRelErr is the relative error of the viscosity measured from the
	// shear-wave decay against the analytic nu = (tau-1/2)/3.
	NuRelErr float64

	// PhysicsIdentical reports whether blocking, overlap and MPI runs ended
	// with bit-identical distributions.
	PhysicsIdentical bool
}

// lbmConfig sizes the lattice at 4 cells per rank per axis over the tile's
// rank grid; Full doubles the per-rank block.
func lbmConfig(m *sim.Machine, opt Options) lbm.Config {
	per := 4
	if opt.Full {
		per = 8
	}
	g := m.Map.Grid
	return lbm.Config{
		Cells: vec.I3{X: g.X * per, Y: g.Y * per, Z: g.Z * per},
		Tau:   0.8,
	}
}

// lbmRun advances one freshly initialized system and returns it with its
// fingerprint.
func lbmRun(m *sim.Machine, cfg lbm.Config, steps int) (*lbm.System, uint64, error) {
	s, err := lbm.New(m.Map, m.Params, m.Cost, cfg)
	if err != nil {
		return nil, 0, err
	}
	s.InitShearWave(0.01)
	for i := 0; i < steps; i++ {
		s.Step()
	}
	return s, s.Fingerprint(), nil
}

// Lbm runs the lattice-Boltzmann halo workload: the overlap ablation on the
// uTofu transport and the MPI fallback comparison.
func Lbm(opt Options) (LbmResult, error) {
	m, err := sim.NewMachine(opt.tileFor())
	if err != nil {
		return LbmResult{}, err
	}
	cfg := lbmConfig(m, opt)
	steps := opt.steps(30)
	res := LbmResult{
		Nodes: m.Map.Ranks() / m.Map.RanksPerNode(),
		Ranks: m.Map.Ranks(),
		Cells: cfg.Cells,
		Steps: steps,
	}

	// Blocking uTofu: the reference run. Physics series come from here.
	cfg.Transport, cfg.Overlap = halo.TransportUTofu, false
	ref, err := lbm.New(m.Map, m.Params, m.Cost, cfg)
	if err != nil {
		return LbmResult{}, err
	}
	ref.InitShearWave(0.01)
	mass0, amp0 := ref.Mass(), ref.ShearAmplitude()
	for i := 0; i < steps; i++ {
		ref.Step()
	}
	fpRef := ref.Fingerprint()
	res.BlockingElapsed = ref.ElapsedMax()
	res.SetupTime = ref.SetupTime
	res.MassDrift = math.Abs(ref.Mass()-mass0) / mass0
	k := 2 * math.Pi / float64(cfg.Cells.X)
	nu := cfg.Nu()
	nuMeasured := -math.Log(ref.ShearAmplitude()/amp0) / (k * k * float64(steps))
	res.NuRelErr = math.Abs(nuMeasured-nu) / nu

	// Overlap ablation on the same transport.
	cfg.Overlap = true
	over, fpOver, err := lbmRun(m, cfg, steps)
	if err != nil {
		return LbmResult{}, fmt.Errorf("overlap run: %w", err)
	}
	res.OverlapElapsed = over.ElapsedMax()
	if res.BlockingElapsed > 0 {
		res.OverlapGain = (res.BlockingElapsed - res.OverlapElapsed) / res.BlockingElapsed
	}

	// MPI fallback comparison, blocking.
	cfg.Transport, cfg.Overlap = halo.TransportMPI, false
	mpiSys, fpMPI, err := lbmRun(m, cfg, steps)
	if err != nil {
		return LbmResult{}, fmt.Errorf("mpi run: %w", err)
	}
	res.MPIElapsed = mpiSys.ElapsedMax()
	if res.BlockingElapsed > 0 {
		res.UTofuSpeedup = res.MPIElapsed / res.BlockingElapsed
	}
	res.PhysicsIdentical = fpOver == fpRef && fpMPI == fpRef
	if !res.PhysicsIdentical {
		return res, fmt.Errorf("lbm: transports/overlap diverged (blocking %#x overlap %#x mpi %#x)", fpRef, fpOver, fpMPI)
	}
	return res, nil
}

// Format renders the lattice-Boltzmann halo report.
func (r LbmResult) Format() string {
	s := "LBM: D3Q19 lattice-Boltzmann halo workload (overlap ablation)\n"
	s += fmt.Sprintf("tile: %d nodes, %d ranks; lattice %dx%dx%d, %d steps; setup %.2f us\n",
		r.Nodes, r.Ranks, r.Cells.X, r.Cells.Y, r.Cells.Z, r.Steps, 1e6*r.SetupTime)
	s += fmt.Sprintf("blocking: %.3f ms   overlap: %.3f ms   hidden: %.1f%%\n",
		1e3*r.BlockingElapsed, 1e3*r.OverlapElapsed, 100*r.OverlapGain)
	s += fmt.Sprintf("mpi fallback: %.3f ms   utofu speedup: %.2fx\n", 1e3*r.MPIElapsed, r.UTofuSpeedup)
	s += fmt.Sprintf("mass drift: %.2e   viscosity error vs analytic: %.2e\n", r.MassDrift, r.NuRelErr)
	ident := "yes"
	if !r.PhysicsIdentical {
		ident = "NO"
	}
	return s + fmt.Sprintf("bit-identical physics across transports/overlap: %s\n", ident)
}

// Artifact emits the lbm series. Every series is a deterministic function of
// the virtual model, so they are all gated.
func (r LbmResult) Artifact(opt Options) *Artifact {
	a := NewArtifact("lbm", opt)
	a.Params["steps"] = r.Steps
	a.Params["cells"] = r.Cells.Prod()
	a.Add("elapsed/blocking", "s", r.BlockingElapsed, DirLower)
	a.Add("elapsed/overlap", "s", r.OverlapElapsed, DirLower)
	a.Add("overlap_gain", "frac", r.OverlapGain, DirHigher)
	a.Add("elapsed/mpi", "s", r.MPIElapsed, "")
	a.Add("utofu_speedup", "x", r.UTofuSpeedup, DirHigher)
	a.Add("setup", "s", r.SetupTime, DirLower)
	a.Add("mass_drift", "rel", r.MassDrift, DirLower)
	a.Add("nu_rel_err", "rel", r.NuRelErr, DirLower)
	identical := 0.0
	if r.PhysicsIdentical {
		identical = 1
	}
	a.Add("physics_identical", "bool", identical, DirEqual)
	return a
}
