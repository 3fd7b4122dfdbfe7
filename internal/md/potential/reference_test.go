package potential

import (
	"fmt"
	"math"
	"testing"

	"tofumd/internal/md/atom"
	"tofumd/internal/md/neighbor"
	"tofumd/internal/vec"
	"tofumd/internal/xrand"
)

// The reference kernels below are the straightforward forms the optimized
// kernels replaced, kept verbatim as oracles: the optimized kernels must
// reproduce every force, density, energy and virial bit for bit, because
// the paper's kernels do not change force math and the ref and opt
// variants must stay comparable (Fig. 11).

// splineReference is the four-array spline layout.
type splineReference struct {
	x0, dx     float64
	n          int
	a, b, c, d []float64
}

func newSplineReference(x0, dx float64, y []float64) (*splineReference, error) {
	n := len(y)
	if n < 3 {
		return nil, fmt.Errorf("potential: spline needs >= 3 samples, got %d", n)
	}
	if dx <= 0 {
		return nil, fmt.Errorf("potential: spline dx %v <= 0", dx)
	}
	l := make([]float64, n)
	mu := make([]float64, n)
	z := make([]float64, n)
	l[0] = 1
	for i := 1; i < n-1; i++ {
		alpha := 3*(y[i+1]-y[i])/dx - 3*(y[i]-y[i-1])/dx
		l[i] = 4*dx - dx*mu[i-1]
		mu[i] = dx / l[i]
		z[i] = (alpha - dx*z[i-1]) / l[i]
	}
	l[n-1] = 1
	c := make([]float64, n)
	b := make([]float64, n)
	d := make([]float64, n)
	for j := n - 2; j >= 0; j-- {
		c[j] = z[j] - mu[j]*c[j+1]
		b[j] = (y[j+1]-y[j])/dx - dx*(c[j+1]+2*c[j])/3
		d[j] = (c[j+1] - c[j]) / (3 * dx)
	}
	return &splineReference{x0: x0, dx: dx, n: n, a: append([]float64(nil), y...), b: b, c: c, d: d}, nil
}

func (s *splineReference) Eval(x float64) (y, dy float64) {
	hi := s.x0 + float64(s.n-1)*s.dx
	if x < s.x0 {
		x = s.x0
	} else if x > hi {
		x = hi
	}
	i := int((x - s.x0) / s.dx)
	if i < 0 {
		i = 0
	}
	if i > s.n-2 {
		i = s.n - 2
	}
	u := x - (s.x0 + float64(i)*s.dx)
	y = s.a[i] + u*(s.b[i]+u*(s.c[i]+u*s.d[i]))
	dy = s.b[i] + u*(2*s.c[i]+3*u*s.d[i])
	return y, dy
}

func ljComputeReference(l *LJ, a *atom.Arrays, nl *neighbor.List) Result {
	var res Result
	half := nl.Mode != neighbor.Full
	for i := 0; i < a.NLocal; i++ {
		xi := a.X[i]
		fi := a.F[i]
		for _, j32 := range nl.NeighborsOf(i) {
			j := int(j32)
			d := xi.Sub(a.X[j])
			r2 := d.Norm2()
			if r2 > l.cut2 {
				continue
			}
			res.Interactions++
			inv2 := 1 / r2
			inv6 := inv2 * inv2 * inv2
			fpair := inv6 * (l.lj1*inv6 - l.lj2) * inv2
			fv := d.Scale(fpair)
			fi = fi.Add(fv)
			e := inv6 * (l.lj3*inv6 - l.lj4)
			if half {
				a.F[j] = a.F[j].Sub(fv)
				res.PotentialEnergy += e
				res.Virial += r2 * fpair
			} else {
				res.PotentialEnergy += 0.5 * e
				res.Virial += 0.5 * r2 * fpair
			}
		}
		a.F[i] = fi
	}
	return res
}

// eamReference holds the three separate splines the fused table replaced.
type eamReference struct {
	phi, psi, f *splineReference
	cut2        float64
}

// newEAMReference refits e's tables from their samples (a knot's a is its
// sample) with the reference fit.
func newEAMReference(t *testing.T, e *EAM) *eamReference {
	t.Helper()
	phi := make([]float64, len(e.pair))
	psi := make([]float64, len(e.pair))
	for i, k := range e.pair {
		phi[i], psi[i] = k.phi.a, k.psi.a
	}
	emb := make([]float64, len(e.f.k))
	for i, k := range e.f.k {
		emb[i] = k.a
	}
	fit := func(g grid, y []float64) *splineReference {
		s, err := newSplineReference(g.x0, g.dx, y)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return &eamReference{
		phi:  fit(e.pairGrid, phi),
		psi:  fit(e.pairGrid, psi),
		f:    fit(e.f.grid, emb),
		cut2: e.cut2,
	}
}

func (e *eamReference) AccumulateRho(a *atom.Arrays, nl *neighbor.List) int {
	count := 0
	for i := 0; i < a.NLocal; i++ {
		xi := a.X[i]
		for _, j32 := range nl.NeighborsOf(i) {
			j := int(j32)
			d := xi.Sub(a.X[j])
			r2 := d.Norm2()
			if r2 > e.cut2 {
				continue
			}
			count++
			r := math.Sqrt(r2)
			p, _ := e.psi.Eval(r)
			a.Rho[i] += p
			a.Rho[j] += p
		}
	}
	return count
}

func (e *eamReference) FinishRho(a *atom.Arrays) float64 {
	var energy float64
	for i := 0; i < a.NLocal; i++ {
		f, df := e.f.Eval(a.Rho[i])
		energy += f
		a.Fp[i] = df
	}
	return energy
}

func (e *eamReference) ComputeForce(a *atom.Arrays, nl *neighbor.List) Result {
	var res Result
	for i := 0; i < a.NLocal; i++ {
		xi := a.X[i]
		fi := a.F[i]
		for _, j32 := range nl.NeighborsOf(i) {
			j := int(j32)
			d := xi.Sub(a.X[j])
			r2 := d.Norm2()
			if r2 > e.cut2 {
				continue
			}
			res.Interactions++
			r := math.Sqrt(r2)
			phi, dphi := e.phi.Eval(r)
			_, dpsi := e.psi.Eval(r)
			// f(r) = -[phi'(r) + (Fp_i + Fp_j) psi'(r)] rhat
			fmag := -(dphi + (a.Fp[i]+a.Fp[j])*dpsi) / r
			fv := d.Scale(fmag)
			fi = fi.Add(fv)
			a.F[j] = a.F[j].Sub(fv)
			res.PotentialEnergy += phi
			res.Virial += r2 * fmag
		}
		a.F[i] = fi
	}
	return res
}

// jitteredLattice places atoms on a simple-cubic lattice of spacing h in a
// box of side cells, each coordinate moved by up to ±jitter/2 spacings,
// with ghosts in a shell of width shell appended behind the locals. Forces
// start non-zero so the kernels' read-modify-write of F is checked too.
// Keep jitter small: a close pair's r^-12 term would dominate the energy
// sum and absorb the last-bit differences the test is looking for.
func jitteredLattice(cells int, h, jitter, shell float64, seed uint64) *atom.Arrays {
	rng := xrand.New(seed)
	side := float64(cells) * h
	jit := func(v float64) float64 { return v + (rng.Float64()-0.5)*jitter*h }
	a := atom.New(cells * cells * cells)
	var ghosts []vec.V3
	id := int64(0)
	lo, hi := -int(math.Ceil(shell/h)), cells+int(math.Ceil(shell/h))
	for z := lo; z < hi; z++ {
		for y := lo; y < hi; y++ {
			for x := lo; x < hi; x++ {
				p := vec.V3{X: jit(float64(x) * h), Y: jit(float64(y) * h), Z: jit(float64(z) * h)}
				inside := x >= 0 && x < cells && y >= 0 && y < cells && z >= 0 && z < cells
				if inside {
					id++
					a.AddLocal(id, 1, p, vec.V3{})
				} else if p.X > -shell && p.X < side+shell && p.Y > -shell &&
					p.Y < side+shell && p.Z > -shell && p.Z < side+shell {
					ghosts = append(ghosts, p)
				}
			}
		}
	}
	for _, p := range ghosts {
		id++
		a.AddGhost(id, 1, p)
	}
	for i := range a.F {
		a.F[i] = vec.V3{X: rng.Normal(), Y: rng.Normal(), Z: rng.Normal()}
	}
	return a
}

func cloneArrays(a *atom.Arrays) *atom.Arrays {
	c := *a
	c.X = append([]vec.V3(nil), a.X...)
	c.F = append([]vec.V3(nil), a.F...)
	c.Rho = append([]float64(nil), a.Rho...)
	c.Fp = append([]float64(nil), a.Fp...)
	return &c
}

func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s = %v, reference %v (bits differ)", what, got, want)
	}
}

func sameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	sameBits(t, what+" PE", got.PotentialEnergy, want.PotentialEnergy)
	sameBits(t, what+" virial", got.Virial, want.Virial)
	if got.Interactions != want.Interactions {
		t.Errorf("%s interactions = %d, reference %d", what, got.Interactions, want.Interactions)
	}
}

func sameForces(t *testing.T, what string, got, want *atom.Arrays) {
	t.Helper()
	for i := range want.F {
		g, w := got.F[i], want.F[i]
		if math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
			math.Float64bits(g.Z) != math.Float64bits(w.Z) {
			t.Fatalf("%s: F[%d] = %v, reference %v", what, i, g, w)
		}
	}
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

func TestKernelsMatchReference(t *testing.T) {
	t.Run("spline", func(t *testing.T) {
		y := make([]float64, 257)
		for i := range y {
			y[i] = math.Exp(-0.03*float64(i)) * math.Cos(0.1*float64(i))
		}
		s, err := NewSpline(0.5, 0.0173, y)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newSplineReference(0.5, 0.0173, y)
		if err != nil {
			t.Fatal(err)
		}
		xs := []float64{math.Inf(-1), -3, 0.5, s.hi, s.hi + 1e-12, 9, math.Inf(1)}
		for i := 0; i < s.n; i++ { // knot edges and either side of them
			k := 0.5 + float64(i)*0.0173
			xs = append(xs, k, math.Nextafter(k, 0), math.Nextafter(k, 10))
		}
		rng := xrand.New(7)
		for i := 0; i < 2000; i++ {
			xs = append(xs, 0.4+rng.Float64()*4.6)
		}
		for _, x := range xs {
			v, d := s.Eval(x)
			rv, rd := ref.Eval(x)
			sameBits(t, fmt.Sprintf("y(%v)", x), v, rv)
			sameBits(t, fmt.Sprintf("y'(%v)", x), d, rd)
		}
	})

	t.Run("lj", func(t *testing.T) {
		lj := NewLJ(1, 1, 2.5)
		// Spacing 1.06 ~ density 0.84; the 0.3 skin puts listed pairs
		// beyond the force cutoff too.
		systems := kernelSystems(kernelShape{cut: 2.5, list: 2.8, longList: 3.6, h: 1.06, jitter: 0.1, cells: 8},
			dimers(0.9, 2.8, 0.0137))
		for _, sys := range systems {
			for _, mode := range []neighbor.Mode{neighbor.HalfNewton, neighbor.HalfShell, neighbor.Full} {
				what := fmt.Sprintf("%s %s", sys.name, mode)
				base, nl := sys.listed(t, mode)
				got, want := cloneArrays(base), cloneArrays(base)
				res, ref := lj.Compute(got, nl), ljComputeReference(lj, want, nl)
				sameResult(t, what, res, ref)
				sameForces(t, what, got, want)
				if sys.nan && !(math.IsNaN(res.PotentialEnergy) && math.IsNaN(ref.PotentialEnergy)) {
					t.Errorf("%s: PE = %v, reference %v; a NaN distance must reach the energy", what, res.PotentialEnergy, ref.PotentialEnergy)
				}
			}
			if t.Failed() {
				return
			}
		}
	})

	t.Run("eam", func(t *testing.T) {
		e, err := NewEAMCu(4.95)
		if err != nil {
			t.Fatal(err)
		}
		ref := newEAMReference(t, e)
		systems := kernelSystems(kernelShape{cut: 4.95, list: 5.95, longList: 7.5, h: 2.28, jitter: 0.2, cells: 7}, // ~Cu density
			dimers(1.5, 5.95, 0.0291))
		rng := xrand.New(13)
		for _, sys := range systems {
			for _, mode := range []neighbor.Mode{neighbor.HalfNewton, neighbor.HalfShell} {
				what := fmt.Sprintf("%s %s", sys.name, mode)
				base, nl := sys.listed(t, mode)
				base.EnableEAM()
				for i := range base.Rho {
					base.Rho[i] = rng.Float64() // stale sums the pass must add to
				}
				got, want := cloneArrays(base), cloneArrays(base)

				ng, nw := e.AccumulateRho(got, nl), ref.AccumulateRho(want, nl)
				if ng != nw {
					t.Errorf("%s: AccumulateRho count = %d, reference %d", what, ng, nw)
				}
				sameFloats(t, what+" Rho", got.Rho, want.Rho)
				if sys.nan && !(math.IsNaN(got.Rho[sys.poked]) && math.IsNaN(want.Rho[sys.poked])) {
					t.Errorf("%s: Rho of the NaN atom = %v, reference %v", what, got.Rho[sys.poked], want.Rho[sys.poked])
				}

				sameBits(t, what+" embedding energy", e.FinishRho(got), ref.FinishRho(want))
				sameFloats(t, what+" Fp", got.Fp[:got.NLocal], want.Fp[:want.NLocal])

				// Stand in for the forward exchange: ghosts get some owner's Fp.
				for g := got.NLocal; g < got.Total(); g++ {
					v := got.Fp[rng.Intn(got.NLocal)]
					got.Fp[g], want.Fp[g] = v, v
				}
				res, rres := e.ComputeForce(got, nl), ref.ComputeForce(want, nl)
				sameResult(t, what+" force", res, rres)
				sameForces(t, what, got, want)
				if sys.nan && !(math.IsNaN(res.PotentialEnergy) && math.IsNaN(rres.PotentialEnergy)) {
					t.Errorf("%s: PE = %v, reference %v; a NaN distance must reach the energy", what, res.PotentialEnergy, rres.PotentialEnergy)
				}
			}
			if t.Failed() {
				return
			}
		}
	})
}

// kernelShape sizes the reference-test systems of one potential: its force
// cutoff, the neighbor cutoff its lists use (cutoff plus skin), a longer
// neighbor cutoff whose rows run past rowChunk, and the jittered lattice's
// spacing, jitter and side in cells.
type kernelShape struct {
	cut, list, longList float64
	h, jitter           float64
	cells               int
}

// kernelSystem is one reference-test input. Its list is built at list;
// with nan set, local poked then gets a NaN coordinate, after the build,
// the way a blown-up atom reaches the kernels between two rebuilds.
type kernelSystem struct {
	name   string
	a      *atom.Arrays
	list   float64
	nan    bool
	poked  int
	minRow int // the longest listed row must exceed this in every mode
}

// kernelSystems returns the systems a potential's kernels are held to their
// reference on:
//   - the dimers, each sum a single pair term;
//   - four jittered lattices;
//   - a lattice listed at longList, whose rows the kernels screen in two or
//     more chunks in every list mode;
//   - a skin shell: one local whose more than rowChunk listed neighbors all
//     lie beyond the force cutoff, so whole chunks keep nothing, next to a
//     local with one neighbor inside;
//   - a lattice with one NaN coordinate: a NaN distance passes the screen,
//     as it passes the plain cutoff test, and its NaN reaches the sums.
func kernelSystems(sh kernelShape, dimers []*atom.Arrays) []kernelSystem {
	var out []kernelSystem
	for k, a := range dimers {
		out = append(out, kernelSystem{name: fmt.Sprintf("dimer %d", k), a: a, list: sh.list})
	}
	for seed := uint64(11); seed < 15; seed++ {
		out = append(out, kernelSystem{name: fmt.Sprintf("lattice %d", seed),
			a: jitteredLattice(sh.cells, sh.h, sh.jitter, sh.list, seed), list: sh.list})
	}
	return append(out,
		kernelSystem{name: "long rows", a: jitteredLattice(5, sh.h, sh.jitter, sh.longList, 31),
			list: sh.longList, minRow: rowChunk},
		kernelSystem{name: "skin shell", a: skinShell(sh.cut, sh.list, 150, 32), list: sh.list, minRow: rowChunk},
		kernelSystem{name: "nan", a: jitteredLattice(4, sh.h, sh.jitter, sh.list, 33), list: sh.list, nan: true, poked: 37},
	)
}

// listed builds sys's neighbor list in mode and returns the atoms the
// kernels run on: sys.a itself, or a copy carrying the NaN.
func (sys kernelSystem) listed(t *testing.T, mode neighbor.Mode) (*atom.Arrays, *neighbor.List) {
	t.Helper()
	nl := neighbor.Build(sys.a, sys.list, mode)
	longest := 0
	for i := 0; i < sys.a.NLocal; i++ {
		longest = max(longest, len(nl.NeighborsOf(i)))
	}
	if longest <= sys.minRow {
		t.Fatalf("%s %s: longest row %d, want more than %d", sys.name, mode, longest, sys.minRow)
	}
	if !sys.nan {
		return sys.a, nl
	}
	a := cloneArrays(sys.a)
	a.X[sys.poked].Y = math.NaN()
	return a, nl
}

// skinShell places local 0 at the origin with n ghosts at random distances
// in the skin between cut and list (away from both edges), and local 1 far
// off with one ghost at 0.7 cut: row 0 lists only pairs the kernels must
// skip, row 1 one pair they must evaluate.
func skinShell(cut, list float64, n int, seed uint64) *atom.Arrays {
	rng := xrand.New(seed)
	a := atom.New(2 + n + 1)
	far := vec.V3{X: 3 * list, Y: 0.1, Z: 0.2}
	a.AddLocal(1, 1, vec.V3{}, vec.V3{})
	a.AddLocal(2, 1, far, vec.V3{})
	for g := 0; g < n; g++ {
		d := vec.V3{X: rng.Normal(), Y: rng.Normal(), Z: rng.Normal()}
		r := cut + (0.05+0.9*rng.Float64())*(list-cut)
		a.AddGhost(int64(3+g), 1, d.Scale(r/d.Norm()))
	}
	a.AddGhost(int64(3+n), 1, far.Add(vec.V3{X: 0.2 * cut, Y: 0.3 * cut, Z: 0.6 * cut}))
	for i := range a.F {
		a.F[i] = vec.V3{X: rng.Normal(), Y: rng.Normal(), Z: rng.Normal()}
	}
	return a
}

// dimers returns one system per distance r in [r0, r1) by step: a local
// and a ghost r apart along a skewed unit axis. Each kernel sum then holds
// a single pair term, so a rounding change in any one term shows, where a
// cluster's sums would often absorb it.
func dimers(r0, r1, step float64) []*atom.Arrays {
	var out []*atom.Arrays
	for r := r0; r < r1; r += step {
		a := atom.New(1)
		a.AddLocal(1, 1, vec.V3{X: 0.1, Y: 0.2, Z: 0.3}, vec.V3{})
		a.AddGhost(2, 1, vec.V3{X: 0.1 + 0.48*r, Y: 0.2 + 0.6*r, Z: 0.3 + 0.64*r})
		a.F[0], a.F[1] = vec.V3{X: 0.5, Y: -0.25, Z: 1}, vec.V3{X: -1, Y: 0.75, Z: 0.125}
		out = append(out, a)
	}
	return out
}
