package potential

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"tofumd/internal/md/atom"
	"tofumd/internal/md/neighbor"
	"tofumd/internal/vec"
)

func TestLJDimerForce(t *testing.T) {
	lj := NewLJ(1, 1, 2.5)
	a := atom.New(2)
	r := 1.2
	a.AddLocal(1, 1, vec.V3{}, vec.V3{})
	a.AddLocal(2, 1, vec.V3{X: r}, vec.V3{})
	nl := neighbor.Build(a, 2.8, neighbor.HalfShell)
	res := lj.Compute(a, nl)
	// Analytic: U = 4(r^-12 - r^-6), F = 24(2 r^-13 - r^-7) attractive at
	// r > 2^(1/6).
	wantU := 4 * (math.Pow(r, -12) - math.Pow(r, -6))
	if math.Abs(res.PotentialEnergy-wantU) > 1e-12 {
		t.Errorf("U = %v, want %v", res.PotentialEnergy, wantU)
	}
	wantF := 24 * (2*math.Pow(r, -13) - math.Pow(r, -7))
	if math.Abs(a.F[0].X+wantF) > 1e-12 {
		t.Errorf("F0.x = %v, want %v", a.F[0].X, -wantF)
	}
	if a.F[0].X+a.F[1].X != 0 {
		t.Error("Newton's 3rd law violated")
	}
	if res.Interactions != 1 {
		t.Errorf("interactions = %d", res.Interactions)
	}
}

func TestLJEquilibriumDistance(t *testing.T) {
	lj := NewLJ(1, 1, 2.5)
	r := math.Pow(2, 1.0/6)
	a := atom.New(2)
	a.AddLocal(1, 1, vec.V3{}, vec.V3{})
	a.AddLocal(2, 1, vec.V3{X: r}, vec.V3{})
	nl := neighbor.Build(a, 2.8, neighbor.HalfShell)
	lj.Compute(a, nl)
	if math.Abs(a.F[0].X) > 1e-10 {
		t.Errorf("force at minimum = %v", a.F[0].X)
	}
}

func TestLJCutoffRespected(t *testing.T) {
	lj := NewLJ(1, 1, 2.5)
	a := atom.New(2)
	a.AddLocal(1, 1, vec.V3{}, vec.V3{})
	a.AddLocal(2, 1, vec.V3{X: 2.6}, vec.V3{})
	nl := neighbor.Build(a, 2.8, neighbor.HalfShell) // in list, beyond force cutoff
	res := lj.Compute(a, nl)
	if res.PotentialEnergy != 0 || res.Interactions != 0 {
		t.Error("pair beyond cutoff contributed")
	}
}

func TestLJFullVsHalfConsistent(t *testing.T) {
	mkCluster := func() *atom.Arrays {
		a := atom.New(8)
		pts := []vec.V3{
			{X: 0, Y: 0, Z: 0}, {X: 1.1, Y: 0, Z: 0}, {X: 0, Y: 1.2, Z: 0},
			{X: 0, Y: 0, Z: 1.3}, {X: 1, Y: 1, Z: 0}, {X: 0.8, Y: 0, Z: 1},
		}
		for i, p := range pts {
			a.AddLocal(int64(i+1), 1, p, vec.V3{})
		}
		return a
	}
	a1 := mkCluster()
	half := NewLJ(1, 1, 2.5)
	r1 := half.Compute(a1, neighbor.Build(a1, 2.8, neighbor.HalfShell))
	a2 := mkCluster()
	full := NewLJ(1, 1, 2.5)
	full.FullList = true
	r2 := full.Compute(a2, neighbor.Build(a2, 2.8, neighbor.Full))
	if math.Abs(r1.PotentialEnergy-r2.PotentialEnergy) > 1e-12 {
		t.Errorf("PE half %v != full %v", r1.PotentialEnergy, r2.PotentialEnergy)
	}
	if math.Abs(r1.Virial-r2.Virial) > 1e-12 {
		t.Errorf("virial half %v != full %v", r1.Virial, r2.Virial)
	}
	for i := range a1.F[:a1.NLocal] {
		if a1.F[i].Sub(a2.F[i]).Norm() > 1e-12 {
			t.Fatalf("force %d differs between half and full evaluation", i)
		}
	}
}

func TestSplineInterpolatesExactly(t *testing.T) {
	fn := func(x float64) float64 { return math.Sin(x) }
	sp, err := Tabulate(fn, 0, math.Pi, 200)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.05; x < math.Pi; x += 0.1 {
		y, dy := sp.Eval(x)
		if math.Abs(y-math.Sin(x)) > 1e-6 {
			t.Errorf("spline(%v) = %v, want %v", x, y, math.Sin(x))
		}
		if math.Abs(dy-math.Cos(x)) > 1e-3 {
			t.Errorf("spline'(%v) = %v, want %v", x, dy, math.Cos(x))
		}
	}
}

func TestSplineClampsRange(t *testing.T) {
	sp, err := Tabulate(func(x float64) float64 { return x * x }, 1, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Outside the range it extrapolates from the boundary interval but
	// must not panic or return NaN.
	for _, x := range []float64{0.5, 2.5} {
		y, dy := sp.Eval(x)
		if math.IsNaN(y) || math.IsNaN(dy) {
			t.Errorf("Eval(%v) returned NaN", x)
		}
	}
}

func TestSplineErrors(t *testing.T) {
	if _, err := NewSpline(0, 1, []float64{1, 2}); err == nil {
		t.Error("2-point spline accepted")
	}
	if _, err := NewSpline(0, -1, []float64{1, 2, 3}); err == nil {
		t.Error("negative dx accepted")
	}
	if _, err := Tabulate(math.Sqrt, 0, 1, 2); err == nil {
		t.Error("2-point tabulation accepted")
	}
}

// Property: spline value matches the tabulated function within tolerance at
// random points.
func TestSplineAccuracyProperty(t *testing.T) {
	sp, err := Tabulate(math.Exp, 0, 2, 400)
	if err != nil {
		t.Fatal(err)
	}
	f := func(frac float64) bool {
		x := math.Mod(math.Abs(frac), 2)
		y, _ := sp.Eval(x)
		return math.Abs(y-math.Exp(x)) < 1e-7*math.Exp(x)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEAMCalibration(t *testing.T) {
	e, err := NewEAMCu(4.95)
	if err != nil {
		t.Fatal(err)
	}
	if e.A <= 0 || e.B <= 0 {
		t.Fatalf("amplitudes A=%v B=%v", e.A, e.B)
	}
	// Per-atom crystal energy at the equilibrium lattice constant must be
	// the cohesive energy, and the pressure (dE/da) must vanish.
	crystalE := func(a float64) float64 {
		rho, ph := 0.0, 0.0
		for _, s := range fccShells {
			r := a * s.fac
			if r >= e.Cut {
				continue
			}
			rho += float64(s.mult) * e.PsiAt(r)
			ph += float64(s.mult) * e.PhiAt(r)
		}
		return e.FAt(rho) + ph/2
	}
	e0 := crystalE(eamLatA)
	if math.Abs(e0+eamCohesive) > 0.01 {
		t.Errorf("cohesive energy = %v, want %v", e0, -eamCohesive)
	}
	h := 1e-4
	dEda := (crystalE(eamLatA+h) - crystalE(eamLatA-h)) / (2 * h)
	if math.Abs(dEda) > 0.05 {
		t.Errorf("dE/da at equilibrium = %v, want ~0", dEda)
	}
	// Stability: positive curvature.
	d2 := (crystalE(eamLatA+h) - 2*e0 + crystalE(eamLatA-h)) / (h * h)
	if d2 <= 0 {
		t.Errorf("d2E/da2 = %v, crystal unstable", d2)
	}
}

func TestEAMCutoffValidation(t *testing.T) {
	if _, err := NewEAMCu(2.0); err == nil {
		t.Error("cutoff below nearest-neighbor distance accepted")
	}
	if _, err := NewEAMCu(6.0); err == nil {
		t.Error("cutoff beyond the shell table accepted")
	}
}

// TestEAMPairGridMismatch pins the fused phi/psi table's precondition: it
// locates r once for both functions, so their grids must agree exactly.
func TestEAMPairGridMismatch(t *testing.T) {
	mk := func(x0, x1 float64, n int) *Spline {
		s, err := Tabulate(math.Exp, x0, x1, n)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := mk(0.5, 4.95, 64)
	if _, _, err := fusePair(base, mk(0.5, 4.95, 64)); err != nil {
		t.Fatalf("matching grids rejected: %v", err)
	}
	for name, other := range map[string]*Spline{
		"x0": mk(0.6, 4.95, 64),
		"dx": mk(0.5, 5.0, 64),
		"n":  mk(0.5, 4.95, 65),
	} {
		if _, _, err := fusePair(base, other); err == nil {
			t.Errorf("grids differing in %s accepted", name)
		}
	}
}

func TestEAMDimerNewton(t *testing.T) {
	e, err := NewEAMCu(4.95)
	if err != nil {
		t.Fatal(err)
	}
	a := atom.New(2)
	a.AddLocal(1, 1, vec.V3{}, vec.V3{})
	a.AddLocal(2, 1, vec.V3{X: 2.5}, vec.V3{})
	nl := neighbor.Build(a, 5.95, neighbor.HalfShell)
	res := e.Compute(a, nl)
	if a.F[0].Add(a.F[1]).Norm() > 1e-12 {
		t.Error("EAM dimer violates Newton's 3rd law")
	}
	if res.PotentialEnergy >= 0 {
		t.Errorf("dimer PE = %v, want bound (<0)", res.PotentialEnergy)
	}
}

func TestEAMComputePanicsWithGhosts(t *testing.T) {
	e, err := NewEAMCu(4.95)
	if err != nil {
		t.Fatal(err)
	}
	a := atom.New(2)
	a.AddLocal(1, 1, vec.V3{}, vec.V3{})
	a.AddGhost(2, 1, vec.V3{X: 2})
	nl := neighbor.Build(a, 5.95, neighbor.HalfShell)
	defer func() {
		if recover() == nil {
			t.Fatal("Compute with ghosts did not panic")
		}
	}()
	e.Compute(a, nl)
}

// TestKeptMaskMustMatchList pins that a kept mask is valid only for the
// list its density pass screened: rebuilt at a longer cutoff in between,
// the list has more row chunks than the mask, and the force pass refuses it
// before writing any force.
func TestKeptMaskMustMatchList(t *testing.T) {
	e, err := NewEAMCu(4.95)
	if err != nil {
		t.Fatal(err)
	}
	a := jitteredLattice(5, 2.28, 0.2, 7.5, 41)
	a.EnableEAM()
	nl := neighbor.Build(a, 5.95, neighbor.HalfShell)
	var kept []uint64
	e.AccumulateRhoKept(a, nl, &kept)
	e.FinishRho(a)
	nl.Rebuild(a, 7.5, neighbor.HalfShell)
	if rowChunks(nl.Start) == len(kept) {
		t.Fatalf("rebuilt list has %d row chunks, as many as the mask; the test needs rows past rowChunk", len(kept))
	}
	f := append([]vec.V3(nil), a.F...)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("ComputeForceKept accepted a mask from another list")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "kept mask") {
			t.Errorf("panic %v, want the kept-mask message", r)
		}
		for i := range f {
			if a.F[i] != f[i] {
				t.Fatalf("F[%d] written before the refusal", i)
			}
		}
	}()
	e.ComputeForceKept(a, nl, kept)
}

// TestPairKernelsAllocateNothing pins that the kernels md/sim runs every
// step keep their scratch on the stack (LJ's chunk record) or in the
// caller's reused slice (EAM's kept mask): a record that escapes to the
// heap fails here by name, not only as md/sim's per-step bound.
func TestPairKernelsAllocateNothing(t *testing.T) {
	lj := NewLJ(1, 1, 2.5)
	ljAtoms := jitteredLattice(5, 1.06, 0.1, 2.8, 43)
	half := neighbor.Build(ljAtoms, 2.8, neighbor.HalfShell)
	full := neighbor.Build(ljAtoms, 2.8, neighbor.Full)
	e, err := NewEAMCu(4.95)
	if err != nil {
		t.Fatal(err)
	}
	eamAtoms := jitteredLattice(5, 2.28, 0.2, 5.95, 47)
	eamAtoms.EnableEAM()
	nl := neighbor.Build(eamAtoms, 5.95, neighbor.HalfShell)
	var kept []uint64
	e.AccumulateRhoKept(eamAtoms, nl, &kept) // sizes the mask the runs below reuse
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"LJ half list", func() { lj.Compute(ljAtoms, half) }},
		{"LJ full list", func() { lj.Compute(ljAtoms, full) }},
		{"EAM AccumulateRhoKept", func() { e.AccumulateRhoKept(eamAtoms, nl, &kept) }},
		{"EAM ComputeForceKept", func() { e.ComputeForceKept(eamAtoms, nl, kept) }},
	} {
		if avg := testing.AllocsPerRun(5, k.run); avg != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", k.name, avg)
		}
	}
}

func TestEAMForceMatchesEnergyGradient(t *testing.T) {
	e, err := NewEAMCu(4.95)
	if err != nil {
		t.Fatal(err)
	}
	// Trimer: check F = -dU/dx numerically for atom 0.
	mk := func(x0 float64) (*atom.Arrays, *neighbor.List) {
		a := atom.New(3)
		a.EnableEAM()
		a.AddLocal(1, 1, vec.V3{X: x0}, vec.V3{})
		a.AddLocal(2, 1, vec.V3{X: 2.6}, vec.V3{})
		a.AddLocal(3, 1, vec.V3{X: 1.3, Y: 2.2}, vec.V3{})
		return a, neighbor.Build(a, 5.95, neighbor.HalfShell)
	}
	h := 1e-6
	energyAt := func(x0 float64) float64 {
		a, nl := mk(x0)
		return e.Compute(a, nl).PotentialEnergy
	}
	a, nl := mk(0)
	e.Compute(a, nl)
	grad := (energyAt(h) - energyAt(-h)) / (2 * h)
	if math.Abs(a.F[0].X+grad) > 1e-4*(1+math.Abs(grad)) {
		t.Errorf("F.x = %v, -dU/dx = %v", a.F[0].X, -grad)
	}
}

func TestResultAdd(t *testing.T) {
	a := Result{PotentialEnergy: 1, Virial: 2, Interactions: 3}
	a.Add(Result{PotentialEnergy: 4, Virial: 5, Interactions: 6})
	if a.PotentialEnergy != 5 || a.Virial != 7 || a.Interactions != 9 {
		t.Errorf("Add result %+v", a)
	}
}

func TestNames(t *testing.T) {
	if NewLJ(1, 1, 2.5).Name() != "lj/cut" {
		t.Error("LJ name")
	}
	full := NewLJ(1, 1, 2.5)
	full.FullList = true
	if full.Name() != "lj/cut/full" || !full.NeedsFullList() {
		t.Error("full LJ flags")
	}
	e, _ := NewEAMCu(4.95)
	if e.Name() != "eam" || e.NeedsFullList() {
		t.Error("EAM flags")
	}
	if e.Mass() != 63.55 || e.Cutoff() != 4.95 {
		t.Error("EAM constants")
	}
}

func BenchmarkSplineEval(b *testing.B) {
	sp, err := Tabulate(math.Exp, 0, 2, 1024)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		v, d := sp.Eval(float64(i%2000) * 0.001)
		sink += v + d
	}
	_ = sink
}
