package bench

import (
	"fmt"
	"math"

	"tofumd/internal/halo"
	"tofumd/internal/lbm"
	"tofumd/internal/md/sim"
	"tofumd/internal/vec"
)

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

// Lbm measures the halo library's first non-MD consumer: a D3Q19
// lattice-Boltzmann stencil exchanging its face planes through the same
// staged uTofu fabric as the MD halo. The headline series is the
// blocking-vs-overlap ablation on the uTofu transport (the slowest rank's
// elapsed virtual time under each, and the fraction of the blocking time the
// overlap hides), then the blocking run on the two-sided MPI fallback and
// uTofu's speedup over it, and the one-off uTofu VCQ + inbox registration
// cost. Physics rides along as gates: the relative mass drift of the
// blocking run (exact conservation, so rounding noise), the viscosity
// measured from the shear-wave decay against the analytic nu = (tau-1/2)/3,
// and bit-identical distributions across transports and overlap, without
// which Lbm fails.
func Lbm(opt Options) (*Artifact, error) {
	m, err := sim.NewMachine(opt.tileFor())
	if err != nil {
		return nil, err
	}
	cfg := lbmConfig(m, opt)
	steps := opt.steps(30)

	// Blocking uTofu: the reference run. Physics series come from here.
	cfg.Transport, cfg.Overlap = halo.TransportUTofu, false
	ref, err := lbm.New(m.Map, m.Params, m.Cost, cfg)
	if err != nil {
		return nil, err
	}
	ref.InitShearWave(0.01)
	mass0, amp0 := ref.Mass(), ref.ShearAmplitude()
	for i := 0; i < steps; i++ {
		ref.Step()
	}
	fpRef := ref.Fingerprint()
	blocking := ref.ElapsedMax()
	k := 2 * math.Pi / float64(cfg.Cells.X)
	nu := cfg.Nu()
	nuMeasured := -math.Log(ref.ShearAmplitude()/amp0) / (k * k * float64(steps))

	// Overlap ablation on the same transport.
	cfg.Overlap = true
	over, fpOver, err := lbmRun(m, cfg, steps)
	if err != nil {
		return nil, fmt.Errorf("overlap run: %w", err)
	}

	// MPI fallback comparison, blocking.
	cfg.Transport, cfg.Overlap = halo.TransportMPI, false
	mpiSys, fpMPI, err := lbmRun(m, cfg, steps)
	if err != nil {
		return nil, fmt.Errorf("mpi run: %w", err)
	}
	if fpOver != fpRef || fpMPI != fpRef {
		return nil, fmt.Errorf("lbm: transports/overlap diverged (blocking %#x overlap %#x mpi %#x)", fpRef, fpOver, fpMPI)
	}

	var gain, speedup float64
	if blocking > 0 {
		gain = (blocking - over.ElapsedMax()) / blocking
		speedup = mpiSys.ElapsedMax() / blocking
	}
	a := NewArtifact("lbm", opt)
	a.Params["steps"] = steps
	a.Params["cells"] = cfg.Cells.Prod()
	a.Add("elapsed/blocking", "s", blocking, DirLower)
	a.Add("elapsed/overlap", "s", over.ElapsedMax(), DirLower)
	a.Add("overlap_gain", "frac", gain, DirHigher)
	a.Add("elapsed/mpi", "s", mpiSys.ElapsedMax(), "")
	a.Add("utofu_speedup", "x", speedup, DirHigher)
	a.Add("setup", "s", ref.SetupTime, DirLower)
	a.Add("mass_drift", "rel", math.Abs(ref.Mass()-mass0)/mass0, DirLower)
	a.Add("nu_rel_err", "rel", math.Abs(nuMeasured-nu)/nu, DirLower)
	a.Add("physics_identical", "bool", 1, DirEqual)
	return a, nil
}
