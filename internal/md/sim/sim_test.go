package sim

import (
	"math"
	"testing"

	"tofumd/internal/md/lattice"
	"tofumd/internal/md/potential"
	"tofumd/internal/trace"
	"tofumd/internal/units"
	"tofumd/internal/vec"
)

// testMachine builds a small 2x2x2-node machine (32 ranks in a 4x4x2 grid).
func testMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := NewMachine(vec.I3{X: 2, Y: 2, Z: 2})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ljConfig returns a melt configuration small enough for tests: 4000 atoms
// on 32 ranks.
func ljConfig() Config {
	return Config{
		UnitsStyle:  units.LJ,
		Potential:   potential.NewLJ(1, 1, 2.5),
		Cells:       vec.I3{X: 10, Y: 10, Z: 10},
		Lat:         lattice.FCCFromDensity(0.8442),
		Skin:        0.3,
		NeighEvery:  20,
		Temperature: 1.44,
		Seed:        12345,
		NewtonOn:    true,
		ThermoEvery: 10,
	}
}

func newSim(t *testing.T, v Variant, cfg Config) *Simulation {
	t.Helper()
	s, err := New(testMachine(t), v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestSetupCreatesAllAtoms(t *testing.T) {
	s := newSim(t, Ref(), ljConfig())
	want := 4 * 10 * 10 * 10
	if got := s.TotalAtoms(); got != want {
		t.Errorf("TotalAtoms = %d, want %d", got, want)
	}
}

// bruteForces computes reference forces for every atom with a periodic
// all-pairs LJ sum over the global system.
func bruteForces(s *Simulation) map[int64]vec.V3 {
	type ga struct {
		id int64
		x  vec.V3
	}
	var atoms []ga
	for _, r := range s.Ranks() {
		for i := 0; i < r.Atoms.NLocal; i++ {
			atoms = append(atoms, ga{r.Atoms.ID[i], r.Atoms.X[i]})
		}
	}
	box := s.Decomp().Box
	cut2 := 2.5 * 2.5
	out := make(map[int64]vec.V3, len(atoms))
	for i := range atoms {
		var f vec.V3
		for j := range atoms {
			if i == j {
				continue
			}
			d := vec.V3{
				X: vec.MinImage(atoms[i].x.X-atoms[j].x.X, box.X),
				Y: vec.MinImage(atoms[i].x.Y-atoms[j].x.Y, box.Y),
				Z: vec.MinImage(atoms[i].x.Z-atoms[j].x.Z, box.Z),
			}
			r2 := d.Norm2()
			if r2 > cut2 {
				continue
			}
			inv2 := 1 / r2
			inv6 := inv2 * inv2 * inv2
			fpair := inv6 * (48*inv6 - 24) * inv2
			f = f.Add(d.Scale(fpair))
		}
		out[atoms[i].id] = f
	}
	return out
}

// simForcesWithReverse returns per-atom forces after folding ghost
// contributions home, as the reverse stage does.
func simForces(s *Simulation) map[int64]vec.V3 {
	out := make(map[int64]vec.V3)
	for _, r := range s.Ranks() {
		for i := 0; i < r.Atoms.NLocal; i++ {
			out[r.Atoms.ID[i]] = r.Atoms.F[i]
		}
	}
	return out
}

// TestForcesMatchBruteForce is the keystone correctness test: the full
// distributed pipeline (border, forward, half lists, reverse) must
// reproduce the all-pairs periodic forces for every variant.
func TestForcesMatchBruteForce(t *testing.T) {
	cfg := ljConfig()
	// Smaller system keeps the O(N^2) reference fast.
	cfg.Cells = vec.I3{X: 8, Y: 8, Z: 8}
	for _, v := range StepByStepVariants() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			s := newSim(t, v, cfg)
			// One full step so reverse communication runs.
			s.Step()
			want := bruteForcesAfterStep(t, s)
			got := simForces(s)
			var worst float64
			for id, w := range want {
				g, ok := got[id]
				if !ok {
					t.Fatalf("atom %d missing", id)
				}
				d := g.Sub(w).Norm()
				scale := 1 + w.Norm()
				if rel := d / scale; rel > worst {
					worst = rel
				}
			}
			if worst > 1e-9 {
				t.Errorf("worst relative force error %.3e", worst)
			}
		})
	}
}

func bruteForcesAfterStep(t *testing.T, s *Simulation) map[int64]vec.V3 {
	t.Helper()
	return bruteForces(s)
}

func TestAtomCountConserved(t *testing.T) {
	cfg := ljConfig()
	s := newSim(t, Opt(), cfg)
	want := s.TotalAtoms()
	s.Run(45)
	if got := s.TotalAtoms(); got != want {
		t.Errorf("atoms after 45 steps = %d, want %d", got, want)
	}
	for _, r := range s.Ranks() {
		if err := r.Atoms.Check(); err != nil {
			t.Errorf("rank %d: %v", r.ID, err)
		}
	}
}

func TestEnergyConservation(t *testing.T) {
	cfg := ljConfig()
	cfg.ThermoEvery = 0
	s := newSim(t, Opt(), cfg)
	e0 := s.TotalEnergyPerAtom()
	s.Run(10) // before the first reneighboring
	if drift := math.Abs(s.TotalEnergyPerAtom() - e0); drift > 1e-3 {
		t.Errorf("energy drift %.3e per atom over 10 steps", drift)
	}
	s.Run(40)
	// Longer runs accrue the known unshifted-cutoff and stale-list drift
	// of the LAMMPS melt benchmark; it stays bounded.
	if drift := math.Abs(s.TotalEnergyPerAtom() - e0); drift > 2e-2 {
		t.Errorf("energy drift %.3e per atom over 50 steps", drift)
	}
}

// TestVariantsAgreePhysically checks the Fig. 11 property: optimizations do
// not change the physics. Variants sharing a communication pattern must be
// trajectory-identical (the transports move identical bytes); across
// patterns, pair-summation sites differ, so trajectories agree only
// statistically — thermo observables must match tightly after a short run.
func TestVariantsAgreePhysically(t *testing.T) {
	cfg := ljConfig()
	cfg.Cells = vec.I3{X: 8, Y: 8, Z: 8}
	cfg.ThermoEvery = 0
	steps := 10
	run := func(v Variant) *Simulation {
		s := newSim(t, v, cfg)
		s.Run(steps)
		return s
	}
	ref := run(Ref())
	refPos := positionsByID(ref)
	maxDiv := func(s *Simulation) float64 {
		got := positionsByID(s)
		var worst float64
		for id, w := range refPos {
			g, ok := got[id]
			if !ok {
				t.Fatalf("atom %d missing", id)
			}
			if d := g.Sub(w).Norm(); d > worst {
				worst = d
			}
		}
		return worst
	}
	// Same pattern as ref: bit-for-bit identical trajectory.
	if d := maxDiv(run(UTofu3Stage())); d != 0 {
		t.Errorf("utofu-3stage diverged from ref by %.3e; same pattern must be exact", d)
	}
	// The p2p family: identical among themselves.
	p2pRef := run(P2P4TNI())
	p2pPos := positionsByID(p2pRef)
	for _, v := range []Variant{MPIP2P(), P2P6TNI(), Opt()} {
		s := run(v)
		got := positionsByID(s)
		for id, w := range p2pPos {
			if got[id] != w {
				t.Errorf("%s diverged from 4tni-p2p at atom %d", v.Name, id)
				break
			}
		}
	}
	// Across patterns: summation sites differ (FP sensitivity at the
	// cutoff), so compare observables.
	ref.recordThermo(false)
	p2pRef.recordThermo(false)
	a := ref.Thermo[len(ref.Thermo)-1]
	b := p2pRef.Thermo[len(p2pRef.Thermo)-1]
	if rel := math.Abs(a.Temperature-b.Temperature) / a.Temperature; rel > 5e-3 {
		t.Errorf("temperature differs across patterns by %.3e", rel)
	}
	if rel := math.Abs(a.PEPerAtom-b.PEPerAtom) / math.Abs(a.PEPerAtom); rel > 5e-3 {
		t.Errorf("PE/atom differs across patterns by %.3e", rel)
	}
	if rel := math.Abs(a.Pressure-b.Pressure) / math.Abs(a.Pressure); rel > 1e-2 {
		t.Errorf("pressure differs across patterns by %.3e", rel)
	}
	// And positions stay statistically close over a short run.
	if d := maxDiv(p2pRef); d > 5e-3 {
		t.Errorf("p2p positions diverged %.3e from 3-stage after %d steps", d, steps)
	}
}

func positionsByID(s *Simulation) map[int64]vec.V3 {
	out := make(map[int64]vec.V3)
	for _, r := range s.Ranks() {
		for i := 0; i < r.Atoms.NLocal; i++ {
			out[r.Atoms.ID[i]] = r.Atoms.X[i]
		}
	}
	return out
}

func TestStageBreakdownPopulated(t *testing.T) {
	s := newSim(t, Ref(), ljConfig())
	s.Run(21) // crosses one reneighbor step
	bd := s.Breakdowns()[0]
	for _, st := range []trace.Stage{trace.Pair, trace.Comm, trace.Modify, trace.Neigh} {
		if bd.Get(st) <= 0 {
			t.Errorf("%v stage empty", st)
		}
	}
}

// maxStepAllocs bounds the heap allocations of one ordinary step (no
// rebuild, no thermo output) of the 2x2x2 optimized LJ run. What is left is
// per stage, not per message: the stage closures and the thread pool's
// region bookkeeping, 26 as measured. The step's forward and reverse rounds
// carry 416 messages each, so one allocation per message would be 30 times
// over.
const maxStepAllocs = 64

func TestStepAllocationsBounded(t *testing.T) {
	cfg := ljConfig()
	cfg.ThermoEvery = 0
	s := newSim(t, Opt(), cfg)
	s.Step()
	s.Step()
	// Steps 3..13: the next rebuild is at step 20.
	if avg := testing.AllocsPerRun(10, s.Step); avg > maxStepAllocs {
		t.Errorf("an ordinary step allocates %.0f times, want at most %d", avg, maxStepAllocs)
	}
}
