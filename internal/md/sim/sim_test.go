package sim

import (
	"math"
	"testing"

	"tofumd/internal/md/lattice"
	"tofumd/internal/md/potential"
	"tofumd/internal/metrics"
	"tofumd/internal/oracle"
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
	atoms := s.Gather()
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
				X: vec.MinImage(atoms[i].Pos.X-atoms[j].Pos.X, box.X),
				Y: vec.MinImage(atoms[i].Pos.Y-atoms[j].Pos.Y, box.Y),
				Z: vec.MinImage(atoms[i].Pos.Z-atoms[j].Pos.Z, box.Z),
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
		out[atoms[i].ID] = f
	}
	return out
}

// forceError returns the worst relative error |Δf| / (1 + |f|) of the
// simulation's local forces, ghost contributions folded home, against
// reference forces by atom ID.
func forceError(t *testing.T, s *Simulation, want map[int64]vec.V3) float64 {
	t.Helper()
	got := make(map[int64]vec.V3)
	for _, r := range s.Ranks() {
		for i := 0; i < r.Atoms.NLocal; i++ {
			got[r.Atoms.ID[i]] = r.Atoms.F[i]
		}
	}
	var worst float64
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("atom %d missing", id)
		}
		worst = max(worst, g.Sub(w).Norm()/(1+w.Norm()))
	}
	return worst
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
			if err := oracle.Check("forces-brute", forceError(t, s, bruteForces(s))); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestAtomCountConserved(t *testing.T) {
	cfg := ljConfig()
	s := newSim(t, Opt(), cfg)
	want := s.TotalAtoms()
	s.Run(45)
	if err := oracle.Check("atom-count", math.Abs(float64(s.TotalAtoms()-want))); err != nil {
		t.Error(err)
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
	if err := oracle.Check("nve-lj-10", math.Abs(s.TotalEnergyPerAtom()-e0)); err != nil {
		t.Error(err)
	}
	s.Run(40)
	if err := oracle.Check("nve-lj-50", math.Abs(s.TotalEnergyPerAtom()-e0)); err != nil {
		t.Error(err)
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
	run := func(v Variant) *Simulation {
		s := newSim(t, v, cfg)
		s.Run(10)
		return s
	}
	ref := run(Ref())
	refPos := ref.Gather()
	if err := oracle.Check("variants-same-pattern", MaxDisplacement(refPos, run(UTofu3Stage()).Gather())); err != nil {
		t.Error(err)
	}
	p2pRef := run(P2P4TNI())
	p2pPos := p2pRef.Gather()
	for _, v := range []Variant{MPIP2P(), P2P6TNI(), Opt()} {
		if err := oracle.Check("variants-same-pattern", MaxDisplacement(p2pPos, run(v).Gather())); err != nil {
			t.Errorf("%s: %v", v.Name, err)
		}
	}
	// Across patterns: summation sites differ (FP sensitivity at the
	// cutoff), so compare observables.
	ref.recordThermo(false)
	p2pRef.recordThermo(false)
	a := ref.Thermo[len(ref.Thermo)-1]
	b := p2pRef.Thermo[len(p2pRef.Thermo)-1]
	if err := oracle.Check("variants-temperature", math.Abs(a.Temperature-b.Temperature)/a.Temperature); err != nil {
		t.Error(err)
	}
	if err := oracle.Check("variants-pe", math.Abs(a.PEPerAtom-b.PEPerAtom)/math.Abs(a.PEPerAtom)); err != nil {
		t.Error(err)
	}
	if err := oracle.Check("variants-pressure", math.Abs(a.Pressure-b.Pressure)/math.Abs(a.Pressure)); err != nil {
		t.Error(err)
	}
	// And positions stay statistically close over a short run.
	if err := oracle.Check("variants-positions", MaxDisplacement(refPos, p2pPos)); err != nil {
		t.Error(err)
	}
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
// rebuild, no thermo output) of the 2x2x2 optimized LJ run at its reading:
// 18 with helpers (8 at one worker). What is left is per stage, not per
// message or per round: the stage closures and the thread pool's region
// bookkeeping; a halo round's tasks are bound once (roundTasks), so a
// closure made per round shows here. The step's forward and reverse rounds
// carry 416 messages each, so one allocation per message would be 23 times
// over.
const maxStepAllocs = 18

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

// TestStepRegions pins the host regions one step opens: one for initial
// integration and two per halo round (the pack, then the round beside the
// unpacks and the work that follows the operation's last round). A force
// pass or the neighbor build opening a region of its own shows here. A
// rebuild step adds the exchange's scan, the border's plan reset and send
// lists (per round under 3-stage) and its rounds; the optimized p2p pattern
// has one round per operation and the 3-stage baseline three.
func TestStepRegions(t *testing.T) {
	lj := func(*testing.T) Config {
		cfg := failstopConfig()
		cfg.ThermoEvery = 0
		return cfg
	}
	for _, tc := range []struct {
		name    string
		cfg     func(*testing.T) Config
		rebuild bool
		opt     int64
		ref     int64
	}{
		{"lj", lj, false, 5, 13},
		{"eam", eamConfig, false, 9, 25},
		{"lj-rebuild", lj, true, 8, 21},
		{"eam-rebuild", eamConfig, true, 12, 33},
	} {
		for _, v := range []Variant{Opt(), Ref()} {
			t.Run(tc.name+"/"+v.Name, func(t *testing.T) {
				cfg := tc.cfg(t)
				if tc.rebuild {
					cfg.NeighEvery, cfg.CheckYes = 1, false
				} else if cfg.NeighEvery == 1 {
					t.Fatal("an ordinary step needs NeighEvery > 1")
				}
				s := newSim(t, v, cfg)
				reg := metrics.New()
				s.SetMetrics(reg)
				rebuilds := s.Rebuilds
				s.Step()
				if rebuilt := s.Rebuilds > rebuilds; rebuilt != tc.rebuild {
					t.Fatalf("step rebuilt the lists: %v, want %v", rebuilt, tc.rebuild)
				}
				want := tc.opt
				if v.Name == "ref" {
					want = tc.ref
				}
				if got := reg.Counter("pool_regions", "dispatched").Value(); got != want {
					t.Errorf("one step opened %d host regions, want %d", got, want)
				}
			})
		}
	}
}
