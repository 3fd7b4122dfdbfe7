package sim

import (
	"math"
	"slices"
	"strings"
	"testing"

	"tofumd/internal/md/atom"
	"tofumd/internal/md/lattice"
	"tofumd/internal/md/neighbor"
	"tofumd/internal/md/potential"
	"tofumd/internal/oracle"
	"tofumd/internal/trace"
	"tofumd/internal/units"
	"tofumd/internal/vec"
)

// TestHotGasMigrationStress drives a hot, fast-diffusing system through
// many reneighbor/exchange cycles and checks the global invariants that
// atom migration must preserve.
func TestHotGasMigrationStress(t *testing.T) {
	cfg := ljConfig()
	cfg.Temperature = 4.0 // well above melting: rapid diffusion
	cfg.NeighEvery = 5
	cfg.Cells = vec.I3{X: 8, Y: 8, Z: 8}
	s := newSim(t, Opt(), cfg)
	want := s.TotalAtoms()
	box := s.Decomp().Box

	for block := 0; block < 6; block++ {
		s.Run(15)
		// Count and uniqueness of global ids.
		seen := make(map[int64]bool, want)
		for _, r := range s.Ranks() {
			a := r.Atoms
			for i := 0; i < a.NLocal; i++ {
				if seen[a.ID[i]] {
					t.Fatalf("duplicate atom id %d after %d steps", a.ID[i], (block+1)*15)
				}
				seen[a.ID[i]] = true
				// Ownership: every local atom inside its sub-box.
				x := a.X[i]
				if x.X < r.Lo.X || x.X >= r.Hi.X ||
					x.Y < r.Lo.Y || x.Y >= r.Hi.Y ||
					x.Z < r.Lo.Z || x.Z >= r.Hi.Z {
					t.Fatalf("atom %d at %+v outside rank %d box [%+v,%+v)",
						a.ID[i], x, r.ID, r.Lo, r.Hi)
				}
				// Positions inside the global box.
				if x.X < 0 || x.X >= box.X || x.Y < 0 || x.Y >= box.Y || x.Z < 0 || x.Z >= box.Z {
					t.Fatalf("atom %d escaped the box: %+v", a.ID[i], x)
				}
			}
			if err := a.Check(); err != nil {
				t.Fatal(err)
			}
		}
		if len(seen) != want {
			t.Fatalf("%d atoms after %d steps, want %d", len(seen), (block+1)*15, want)
		}
	}
	// Exchanges must actually have happened for this to be a stress test.
	if s.Rebuilds < 10 {
		t.Errorf("only %d rebuilds; the test should cross many exchange cycles", s.Rebuilds)
	}
	// After all that churn, forces still match brute force.
	if err := oracle.Check("forces-brute", forceError(t, s, bruteForces(s))); err != nil {
		t.Errorf("after stress: %v", err)
	}
}

// TestDeterministicReplay runs the same configuration twice and demands
// bit-identical trajectories and stage breakdowns — the property that makes
// every benchmark in this repository reproducible.
func TestDeterministicReplay(t *testing.T) {
	run := func() ([]InitAtom, float64) {
		cfg := ljConfig()
		s := newSim(t, Opt(), cfg)
		s.Run(30)
		return s.Gather(), trace.Merge(s.Breakdowns()).Total()
	}
	p1, t1 := run()
	p2, t2 := run()
	if t1 != t2 {
		t.Errorf("breakdown totals differ: %v vs %v", t1, t2)
	}
	if !slices.Equal(p1, p2) {
		t.Fatal("atom states differ between identical runs")
	}
}

// TestColdCrystalStays verifies a near-zero-temperature crystal barely
// moves: the potential is at its minimum, so drift indicates force errors.
func TestColdCrystalStays(t *testing.T) {
	pot, err := potential.NewEAMCu(4.95)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		UnitsStyle:  units.Metal,
		Potential:   pot,
		Cells:       vec.I3{X: 8, Y: 8, Z: 8},
		Lat:         lattice.FCCFromConstant(3.615),
		Skin:        1.0,
		NeighEvery:  5,
		CheckYes:    true,
		Temperature: 0.01,
		Seed:        5,
		NewtonOn:    true,
	}
	s := newSim(t, Ref(), cfg)
	start := s.Gather()
	s.Run(40)
	if worst := MaxDisplacement(start, s.Gather()); worst > 0.02 {
		t.Errorf("cold copper crystal drifted %.4f A in 40 steps", worst)
	}
}

// TestMomentumConservation: with PBC and pair forces, total momentum is an
// exact invariant of velocity Verlet.
func TestMomentumConservation(t *testing.T) {
	p0, drift := momentumDrift(t, ljConfig())
	if err := oracle.Check("momentum", drift); err != nil {
		t.Error(err)
	}
	// And the initializer removed the net momentum to begin with.
	if err := oracle.Check("momentum-initial", p0); err != nil {
		t.Error(err)
	}
}

// momentumDrift runs cfg for 40 steps and returns the magnitude of the
// initial net momentum (unit mass) and how far it moved.
func momentumDrift(t *testing.T, cfg Config) (p0, drift float64) {
	s := newSim(t, Opt(), cfg)
	mom := func() vec.V3 {
		var p vec.V3
		for _, a := range s.Gather() {
			p = p.Add(a.Vel)
		}
		return p
	}
	start := mom()
	s.Run(40)
	return start.Norm(), mom().Sub(start).Norm()
}

// lostGhostForce stands in for a lost ghost contribution: after the wrapped
// potential computes, each rank's first local atom keeps half its force.
type lostGhostForce struct{ potential.Pair }

func (p lostGhostForce) Compute(a *atom.Arrays, nl *neighbor.List) potential.Result {
	res := p.Pair.Compute(a, nl)
	a.F[0] = a.F[0].Scale(0.5)
	return res
}

// TestOraclesCatchSeededDefect shows the oracles are not vacuous: under a
// lost ghost force the momentum and LJ decomposition rows fail, each
// naming itself.
func TestOraclesCatchSeededDefect(t *testing.T) {
	cfg := ljConfig()
	cfg.Potential = lostGhostForce{cfg.Potential}
	_, drift := momentumDrift(t, cfg)
	if err := oracle.Check("momentum", drift); err == nil || !strings.HasPrefix(err.Error(), "oracle momentum:") {
		t.Errorf("momentum row missed the lost ghost force: %v", err)
	}
	if err := oracle.Check("decomp-lj-eam", decompDivergence(t, cfg)); err == nil || !strings.HasPrefix(err.Error(), "oracle decomp-lj-eam:") {
		t.Errorf("decomp-lj-eam row missed the lost ghost force: %v", err)
	}
	// Energy drift over the first 10 steps stays inside its bound: that row
	// alone would not catch this defect.
	cfg.ThermoEvery = 0
	s := newSim(t, Opt(), cfg)
	e0 := s.TotalEnergyPerAtom()
	s.Run(10)
	d := math.Abs(s.TotalEnergyPerAtom() - e0)
	t.Logf("under the defect: momentum drift %.2g; nve-lj-10 reads %.2g (clean 2.8e-4), check: %v", drift, d, oracle.Check("nve-lj-10", d))
}

// TestClockMonotonicity: virtual clocks never move backwards through any
// stage of any variant.
func TestClockMonotonicity(t *testing.T) {
	for _, v := range StepByStepVariants() {
		cfg := ljConfig()
		cfg.Cells = vec.I3{X: 8, Y: 8, Z: 8}
		s := newSim(t, v, cfg)
		prev := make([]float64, len(s.Ranks()))
		for step := 0; step < 25; step++ {
			s.Step()
			for i, r := range s.Ranks() {
				if r.Clock < prev[i] {
					t.Fatalf("%s: rank %d clock went backwards at step %d", v.Name, i, step)
				}
				prev[i] = r.Clock
			}
		}
		s.Close()
	}
}

// TestBreakdownMatchesClock: the sum of stage times equals the clock
// advance for every rank (no unattributed time).
func TestBreakdownMatchesClock(t *testing.T) {
	cfg := ljConfig()
	s := newSim(t, Opt(), cfg)
	s.Run(25)
	for _, r := range s.Ranks() {
		if d := math.Abs(r.BD.Total() - r.Clock); d > 1e-9 {
			t.Errorf("rank %d: breakdown %.9f != clock %.9f", r.ID, r.BD.Total(), r.Clock)
		}
	}
}
