package lbm

import (
	"math"
	"testing"

	"tofumd/internal/halo"
	"tofumd/internal/machine"
	"tofumd/internal/oracle"
	"tofumd/internal/tofu"
	"tofumd/internal/topo"
	"tofumd/internal/vec"
)

func testMap(t *testing.T, nodes vec.I3) *topo.RankMap {
	t.Helper()
	torus, err := topo.NewTorus3D(nodes)
	if err != nil {
		t.Fatal(err)
	}
	m, err := topo.NewRankMap(torus, topo.DefaultBlock, topo.MapTopo)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	m := testMap(t, vec.I3{X: 2, Y: 2, Z: 2})
	if cfg.Cells == (vec.I3{}) {
		cfg.Cells = vec.I3{X: 16, Y: 16, Z: 16}
	}
	if cfg.Tau == 0 {
		cfg.Tau = 0.8
	}
	s, err := New(m, tofu.DefaultParams(), machine.DefaultCostModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	m := testMap(t, vec.I3{X: 2, Y: 2, Z: 2})
	bad := Config{Cells: vec.I3{X: 16, Y: 16, Z: 16}, Tau: 0.5}
	if _, err := New(m, tofu.DefaultParams(), machine.DefaultCostModel(), bad); err == nil {
		t.Error("tau = 1/2 accepted")
	}
	// The 4x4x2 rank grid cannot be covered by a 2-cell x axis.
	bad = Config{Cells: vec.I3{X: 2, Y: 16, Z: 16}, Tau: 0.8}
	if _, err := New(m, tofu.DefaultParams(), machine.DefaultCostModel(), bad); err == nil {
		t.Error("under-sized lattice accepted")
	}
}

func TestCellRangeCoversLattice(t *testing.T) {
	s := testSystem(t, Config{Transport: halo.TransportUTofu})
	total := 0
	for _, r := range s.Ranks() {
		total += r.N.Prod()
		if r.N.X < 1 || r.N.Y < 1 || r.N.Z < 1 {
			t.Fatalf("rank %d has empty block %+v", r.ID, r.N)
		}
	}
	if want := s.Cfg.Cells.Prod(); total != want {
		t.Errorf("blocks cover %d cells, lattice has %d", total, want)
	}
}

func TestMassAndMomentumConserved(t *testing.T) {
	s := testSystem(t, Config{Transport: halo.TransportUTofu})
	s.InitShearWave(0.01)
	mass0 := s.Mass()
	mom0 := s.Momentum()
	for i := 0; i < 20; i++ {
		s.Step()
	}
	if err := oracle.Check("lbm-mass", math.Abs(s.Mass()-mass0)/mass0); err != nil {
		t.Error(err)
	}
	d := s.Momentum().Sub(mom0)
	perCell := max(math.Abs(d.X), math.Abs(d.Y), math.Abs(d.Z)) / float64(s.Cfg.Cells.Prod())
	if err := oracle.Check("lbm-momentum", perCell); err != nil {
		t.Error(err)
	}
}

// TestShearWaveDecay validates the physics against the analytic viscosity:
// the transverse shear mode decays as exp(-nu k^2 t) with
// nu = cs^2 (tau - 1/2) = (tau - 1/2)/3.
func TestShearWaveDecay(t *testing.T) {
	s := testSystem(t, Config{Transport: halo.TransportUTofu})
	s.InitShearWave(0.01)
	a0 := s.ShearAmplitude()
	const steps = 50
	for i := 0; i < steps; i++ {
		s.Step()
	}
	aT := s.ShearAmplitude()
	if aT <= 0 || aT >= a0 {
		t.Fatalf("amplitude did not decay: %v -> %v", a0, aT)
	}
	k := 2 * math.Pi / float64(s.Cfg.Cells.X)
	nuMeasured := -math.Log(aT/a0) / (k * k * float64(steps))
	nu := s.Cfg.Nu()
	if err := oracle.Check("lbm-viscosity", math.Abs(nuMeasured-nu)/nu); err != nil {
		t.Error(err)
	}
}

// TestOverlapBitIdentity pins the ablation contract: the overlap variant
// changes only virtual-time accounting, never physics — and it must
// actually be faster, since the interior collision hides communication.
func TestOverlapBitIdentity(t *testing.T) {
	run := func(overlap bool) (uint64, float64) {
		s := testSystem(t, Config{Transport: halo.TransportUTofu, Overlap: overlap})
		s.InitShearWave(0.01)
		for i := 0; i < 10; i++ {
			s.Step()
		}
		return s.Fingerprint(), s.ElapsedMax()
	}
	fpB, elB := run(false)
	fpO, elO := run(true)
	if fpB != fpO {
		t.Errorf("overlap changed physics: %#x vs %#x", fpB, fpO)
	}
	if elO >= elB {
		t.Errorf("overlap did not help: blocking %.6g, overlap %.6g", elB, elO)
	}
}

// TestTransportsAgreeOnPhysics: uTofu and MPI move the same bytes; only
// timing differs.
func TestTransportsAgreeOnPhysics(t *testing.T) {
	run := func(tr halo.Transport) (uint64, float64) {
		s := testSystem(t, Config{Transport: tr})
		s.InitShearWave(0.01)
		for i := 0; i < 10; i++ {
			s.Step()
		}
		return s.Fingerprint(), s.ElapsedMax()
	}
	fpU, elU := run(halo.TransportUTofu)
	fpM, elM := run(halo.TransportMPI)
	mismatches := 0.0
	if fpU != fpM {
		mismatches = 1
	}
	if err := oracle.Check("lbm-transports", mismatches); err != nil {
		t.Error(err)
	}
	if elU >= elM {
		t.Errorf("uTofu (%.6g) not faster than MPI (%.6g)", elU, elM)
	}
}

// TestSelfImageExchange exercises the one-rank-wide axis path (periodic
// self copy instead of a fabric message) on a single-node tile.
func TestSelfImageExchange(t *testing.T) {
	m := testMap(t, vec.I3{X: 1, Y: 1, Z: 1}) // 2x2x1 rank grid: z is self
	cfg := Config{Cells: vec.I3{X: 8, Y: 8, Z: 8}, Tau: 0.8, Transport: halo.TransportUTofu}
	s, err := New(m, tofu.DefaultParams(), machine.DefaultCostModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.InitShearWave(0.01)
	mass0 := s.Mass()
	for i := 0; i < 5; i++ {
		s.Step()
	}
	if err := oracle.Check("lbm-mass", math.Abs(s.Mass()-mass0)/mass0); err != nil {
		t.Errorf("self-image exchange: %v", err)
	}
}

// TestUniformStateIsFixedPoint: a resting uniform fluid must stay at the
// equilibrium weights. Not bit-exact — the D3Q19 weights sum to 1+2e-16 in
// float64, so collide sees rho = 1+ulp and relaxes toward w*rho — but the
// drift must stay at machine-epsilon scale, never grow.
func TestUniformStateIsFixedPoint(t *testing.T) {
	s := testSystem(t, Config{Transport: halo.TransportMPI})
	s.InitUniform(1)
	for i := 0; i < 3; i++ {
		s.Step()
	}
	var worst float64
	for _, r := range s.Ranks() {
		for q := 0; q < Q; q++ {
			for x := 1; x <= r.N.X; x++ {
				for y := 1; y <= r.N.Y; y++ {
					for z := 1; z <= r.N.Z; z++ {
						d := math.Abs(r.f[q][r.idx(x, y, z)] - weights[q])
						if d > worst {
							worst = d
						}
					}
				}
			}
		}
	}
	if worst > 1e-15 {
		t.Errorf("uniform equilibrium drifted by %g from the weights", worst)
	}
}
