package integrate

import (
	"math"
	"testing"

	"tofumd/internal/md/atom"
	"tofumd/internal/oracle"
	"tofumd/internal/vec"
)

func TestFreeParticleMotion(t *testing.T) {
	nve := &NVE{Dt: 0.01, Mass: 1, Mvv2e: 1}
	a := atom.New(1)
	a.AddLocal(1, 1, vec.V3{}, vec.V3{X: 2})
	for i := 0; i < 100; i++ {
		nve.InitialIntegrate(a)
		nve.FinalIntegrate(a)
	}
	if math.Abs(a.X[0].X-2.0) > 1e-12 {
		t.Errorf("free particle at %v after t=1, want 2", a.X[0].X)
	}
	if a.V[0].X != 2 {
		t.Errorf("free particle velocity changed: %v", a.V[0].X)
	}
}

func TestConstantForceKinematics(t *testing.T) {
	nve := &NVE{Dt: 0.001, Mass: 2, Mvv2e: 1}
	a := atom.New(1)
	a.AddLocal(1, 1, vec.V3{}, vec.V3{})
	force := vec.V3{X: 4} // acceleration = 2
	steps := 1000         // t = 1
	for i := 0; i < steps; i++ {
		a.F[0] = force
		nve.InitialIntegrate(a)
		a.F[0] = force
		nve.FinalIntegrate(a)
	}
	// x = a t^2 / 2 = 1, v = a t = 2.
	if math.Abs(a.X[0].X-1) > 1e-9 {
		t.Errorf("x = %v, want 1", a.X[0].X)
	}
	if math.Abs(a.V[0].X-2) > 1e-9 {
		t.Errorf("v = %v, want 2", a.V[0].X)
	}
}

func TestHarmonicEnergyConservation(t *testing.T) {
	// A particle on a spring (k=1): velocity Verlet must conserve energy
	// to O(dt^2) over many periods.
	nve := &NVE{Dt: 0.01, Mass: 1, Mvv2e: 1}
	a := atom.New(1)
	a.AddLocal(1, 1, vec.V3{X: 1}, vec.V3{})
	energy := func() float64 {
		return 0.5*a.V[0].Norm2() + 0.5*a.X[0].Norm2()
	}
	a.F[0] = a.X[0].Scale(-1)
	e0 := energy()
	for i := 0; i < 10000; i++ { // ~16 periods
		nve.InitialIntegrate(a)
		a.F[0] = a.X[0].Scale(-1)
		nve.FinalIntegrate(a)
	}
	if err := oracle.Check("nve-harmonic", math.Abs(energy()-e0)); err != nil {
		t.Error(err)
	}
}

func TestGhostsNotIntegrated(t *testing.T) {
	nve := &NVE{Dt: 0.1, Mass: 1, Mvv2e: 1}
	a := atom.New(2)
	a.AddLocal(1, 1, vec.V3{}, vec.V3{X: 1})
	a.AddGhost(2, 1, vec.V3{X: 5})
	a.F[1] = vec.V3{X: 100}
	nve.InitialIntegrate(a)
	if a.X[1] != (vec.V3{X: 5}) {
		t.Error("ghost position moved by the integrator")
	}
}

func TestMvv2eScalesAcceleration(t *testing.T) {
	// Metal units: acceleration = F / (m * mvv2e).
	nve := &NVE{Dt: 1, Mass: 10, Mvv2e: 0.5}
	a := atom.New(1)
	a.AddLocal(1, 1, vec.V3{}, vec.V3{})
	a.F[0] = vec.V3{X: 10}
	nve.InitialIntegrate(a)
	// dv = 0.5 * dt * F/(m*mvv2e) = 0.5*1*10/5 = 1.
	if math.Abs(a.V[0].X-1) > 1e-12 {
		t.Errorf("dv = %v, want 1", a.V[0].X)
	}
}
