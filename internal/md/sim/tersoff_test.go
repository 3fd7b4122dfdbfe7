package sim

import (
	"math"
	"testing"

	"tofumd/internal/md/lattice"
	"tofumd/internal/md/potential"
	"tofumd/internal/oracle"
	"tofumd/internal/units"
	"tofumd/internal/vec"
)

// tersoffConfig is a silicon crystal under the Tersoff potential: the
// full-list + Newton-on regime of LAMMPS's pair_style tersoff, where every
// rank holds a full ghost shell (26 p2p neighbors) and ghost forces flow
// home in the reverse stage.
func tersoffConfig(temp float64) Config {
	return Config{
		UnitsStyle:  units.Metal,
		Potential:   potential.NewTersoffSi(),
		Cells:       vec.I3{X: 4, Y: 4, Z: 4},
		Lat:         lattice.DiamondFromConstant(5.431),
		Skin:        1.0,
		NeighEvery:  5,
		CheckYes:    true,
		Temperature: temp,
		Seed:        321,
		NewtonOn:    true,
	}
}

func TestTersoffFullShellLinks(t *testing.T) {
	s := newSim(t, Opt(), tersoffConfig(300))
	r := s.Ranks()[0]
	if got := len(r.sendLinks); got != 26 {
		t.Errorf("Tersoff p2p send links = %d, want 26 (full shell)", got)
	}
	if got := len(r.recvLinks); got != 26 {
		t.Errorf("recv links = %d, want 26", got)
	}
}

func TestTersoffDecompositionIndependent(t *testing.T) {
	// The decisive distributed-correctness check: the same system run on
	// different machine shapes must produce (nearly) identical trajectories
	// — any ghost-coverage or reverse-stage error would break this
	// immediately, for a 3-body potential first.
	si := tersoffConfig(300)
	a := runGather(t, vec.I3{X: 2, Y: 2, Z: 2}, Opt(), si)
	if err := oracle.Check("decomp-tersoff", MaxDisplacement(a, runGather(t, vec.I3{X: 2, Y: 3, Z: 2}, Opt(), si))); err != nil {
		t.Error(err)
	}
	if err := oracle.Check("variants-tersoff", MaxDisplacement(a, runGather(t, vec.I3{X: 2, Y: 2, Z: 2}, Ref(), si))); err != nil {
		t.Error(err)
	}
	for _, cfg := range []Config{ljConfig(), eamConfig(t)} {
		if err := oracle.Check("decomp-lj-eam", decompDivergence(t, cfg)); err != nil {
			t.Errorf("%s: %v", cfg.Potential.Name(), err)
		}
	}
}

// runGather runs cfg for 8 steps on a machine of the given node shape and
// returns the gathered atoms.
func runGather(t *testing.T, shape vec.I3, v Variant, cfg Config) []InitAtom {
	t.Helper()
	m, err := NewMachine(shape)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(8)
	return s.Gather()
}

// decompDivergence runs cfg on 1×1×1, 2×2×2, 2×3×2 and 2×2×3 nodes and
// returns the largest max |Δx| against 1×1×1.
func decompDivergence(t *testing.T, cfg Config) float64 {
	t.Helper()
	base := runGather(t, vec.I3{X: 1, Y: 1, Z: 1}, Opt(), cfg)
	var worst float64
	for _, shape := range []vec.I3{{X: 2, Y: 2, Z: 2}, {X: 2, Y: 3, Z: 2}, {X: 2, Y: 2, Z: 3}} {
		worst = max(worst, MaxDisplacement(base, runGather(t, shape, Opt(), cfg)))
	}
	return worst
}

func TestTersoffColdCrystalForcesVanish(t *testing.T) {
	s := newSim(t, Ref(), tersoffConfig(0.01))
	var worst float64
	for _, r := range s.Ranks() {
		for i := 0; i < r.Atoms.NLocal; i++ {
			if f := r.Atoms.F[i].Norm(); f > worst {
				worst = f
			}
		}
	}
	if worst > 1e-6 {
		t.Errorf("perfect diamond lattice has residual force %.3e eV/A", worst)
	}
}

func TestTersoffEnergyConservation(t *testing.T) {
	s := newSim(t, Opt(), tersoffConfig(300))
	e0 := s.TotalEnergyPerAtom()
	s.Run(25)
	if err := oracle.Check("tersoff-cohesive", math.Abs(e0-(-4.6))); err != nil {
		t.Error(err)
	}
	if err := oracle.Check("nve-tersoff-25", math.Abs(s.TotalEnergyPerAtom()-e0)); err != nil {
		t.Error(err)
	}
}

func TestTersoffAtomConservation(t *testing.T) {
	cfg := tersoffConfig(1500) // hot: diffusing atoms, frequent rebuilds
	s := newSim(t, Opt(), cfg)
	want := s.TotalAtoms()
	s.Run(30)
	if err := oracle.Check("atom-count", math.Abs(float64(s.TotalAtoms()-want))); err != nil {
		t.Error(err)
	}
}
