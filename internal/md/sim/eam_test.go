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

// eamConfig is a small copper system matching Table 2's EAM parameters:
// metal units, 3.615 A FCC, 4.95 A cutoff, 1.0 A skin, check yes every 5.
func eamConfig(t *testing.T) Config {
	t.Helper()
	pot, err := potential.NewEAMCu(4.95)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		UnitsStyle:  units.Metal,
		Potential:   pot,
		Cells:       vec.I3{X: 8, Y: 8, Z: 8},
		Lat:         lattice.FCCFromConstant(3.615),
		Skin:        1.0,
		NeighEvery:  5,
		CheckYes:    true,
		Temperature: 300,
		Seed:        777,
		NewtonOn:    true,
	}
}

// bruteEAM computes reference EAM forces with a global all-pairs periodic
// sum, evaluating the same splines the engine uses.
func bruteEAM(s *Simulation, pot *potential.EAM) map[int64]vec.V3 {
	atoms := s.Gather()
	box := s.Decomp().Box
	cut := pot.Cutoff()
	cut2 := cut * cut
	disp := func(i, j int) vec.V3 {
		return vec.V3{
			X: vec.MinImage(atoms[i].Pos.X-atoms[j].Pos.X, box.X),
			Y: vec.MinImage(atoms[i].Pos.Y-atoms[j].Pos.Y, box.Y),
			Z: vec.MinImage(atoms[i].Pos.Z-atoms[j].Pos.Z, box.Z),
		}
	}
	n := len(atoms)
	rho := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := disp(i, j)
			r2 := d.Norm2()
			if r2 > cut2 {
				continue
			}
			p := pot.PsiAt(math.Sqrt(r2))
			rho[i] += p
			rho[j] += p
		}
	}
	fp := make([]float64, n)
	for i := range fp {
		fp[i] = pot.FpAt(rho[i])
	}
	out := make(map[int64]vec.V3, n)
	forces := make([]vec.V3, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := disp(i, j)
			r2 := d.Norm2()
			if r2 > cut2 {
				continue
			}
			r := math.Sqrt(r2)
			dphi := pot.DPhiAt(r)
			dpsi := pot.DPsiAt(r)
			fmag := -(dphi + (fp[i]+fp[j])*dpsi) / r
			fv := d.Scale(fmag)
			forces[i] = forces[i].Add(fv)
			forces[j] = forces[j].Sub(fv)
		}
	}
	for i, a := range atoms {
		out[a.ID] = forces[i]
	}
	return out
}

func TestEAMForcesMatchBruteForce(t *testing.T) {
	cfg := eamConfig(t)
	pot := cfg.Potential.(*potential.EAM)
	for _, v := range []Variant{Ref(), Opt()} {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			s := newSim(t, v, cfg)
			s.Step()
			if err := oracle.Check("forces-brute", forceError(t, s, bruteEAM(s, pot))); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestEAMEnergyConservation(t *testing.T) {
	cfg := eamConfig(t)
	s := newSim(t, Opt(), cfg)
	e0 := s.TotalEnergyPerAtom()
	s.Run(20)
	if err := oracle.Check("nve-eam-20", math.Abs(s.TotalEnergyPerAtom()-e0)); err != nil {
		t.Error(err)
	}
}

func TestEAMCheckYesTriggersRebuilds(t *testing.T) {
	cfg := eamConfig(t)
	cfg.Temperature = 1200 // hot enough to breach half the skin quickly
	s := newSim(t, Ref(), cfg)
	before := s.Rebuilds
	s.Run(60)
	if s.Rebuilds == before {
		t.Error("no rebuild in 60 hot steps despite check yes")
	}
	// And a cold crystal must rebuild rarely.
	cfg2 := eamConfig(t)
	cfg2.Temperature = 1
	s2 := newSim(t, Ref(), cfg2)
	before2 := s2.Rebuilds
	s2.Run(30)
	if got := s2.Rebuilds - before2; got > 1 {
		t.Errorf("cold crystal rebuilt %d times in 30 steps", got)
	}
}

func TestEAMVariantsAgree(t *testing.T) {
	cfg := eamConfig(t)
	a := newSim(t, Ref(), cfg)
	b := newSim(t, Opt(), cfg)
	a.Run(5)
	b.Run(5)
	if err := oracle.Check("variants-eam", MaxDisplacement(a.Gather(), b.Gather())); err != nil {
		t.Error(err)
	}
}
