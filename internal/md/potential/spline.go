package potential

import "fmt"

// knot holds one interval's cubic coefficients side by side, so a lookup
// touches one 32-byte record instead of four separate arrays (the layout of
// LAMMPS pair_eam's rhor_spline[m][0..6]).
type knot struct {
	// y = a + b*u + c*u^2 + d*u^3, u = x - x_i.
	a, b, c, d float64
}

// val returns the interval's cubic at local offset u.
func (k *knot) val(u float64) float64 { return k.a + u*(k.b+u*(k.c+u*k.d)) }

// deriv returns the interval's first derivative at local offset u.
func (k *knot) deriv(u float64) float64 { return k.b + u*(2*k.c+3*u*k.d) }

// grid is a uniform sample grid x0 + i*dx, i in [0, n).
type grid struct {
	x0, dx float64
	hi     float64 // x0 + (n-1)*dx, the last sample
	n      int
}

func newGrid(x0, dx float64, n int) grid {
	return grid{x0: x0, dx: dx, hi: x0 + float64(n-1)*dx, n: n}
}

// locate clamps x to [x0, hi] and returns the interval index i and the local
// offset u = x - x_i. Out-of-range arguments hold the value at the end
// sample and the derivative at the end interval's edge slope, rather than
// silently extrapolating the end cubic. The division by dx (never a
// reciprocal multiply) keeps i exact at knot edges.
func (g *grid) locate(x float64) (i int, u float64) {
	if x < g.x0 {
		x = g.x0
	} else if x > g.hi {
		x = g.hi
	}
	i = int((x - g.x0) / g.dx)
	if i < 0 {
		i = 0
	}
	if i > g.n-2 {
		i = g.n - 2
	}
	return i, x - (g.x0 + float64(i)*g.dx)
}

// Spline is a natural cubic spline over uniformly spaced samples, the
// interpolation LAMMPS applies to tabulated EAM potentials (the Cu_u3.eam
// file of Table 2 is a table; our analytic copper EAM is tabulated the same
// way so the code path matches).
type Spline struct {
	grid
	k []knot // one per sample; the last carries a = y[n-1], c = 0
}

// NewSpline fits a natural cubic spline through the samples y[i] taken at
// x0 + i*dx.
func NewSpline(x0, dx float64, y []float64) (*Spline, error) {
	n := len(y)
	if n < 3 {
		return nil, fmt.Errorf("potential: spline needs >= 3 samples, got %d", n)
	}
	if dx <= 0 {
		return nil, fmt.Errorf("potential: spline dx %v <= 0", dx)
	}
	// Solve the tridiagonal system for the c coefficients (half the second
	// derivatives). The natural boundary condition y'' = 0 at both ends is
	// carried by the zero values the system starts from: z[0] = 0 feeds the
	// forward sweep and c[n-1] = 0 seeds the back-substitution, so no
	// separate boundary vector is needed.
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
	k := make([]knot, n)
	for i := range k {
		k[i].a = y[i]
	}
	for j := n - 2; j >= 0; j-- {
		k[j].c = z[j] - mu[j]*k[j+1].c
		k[j].b = (y[j+1]-y[j])/dx - dx*(k[j+1].c+2*k[j].c)/3
		k[j].d = (k[j+1].c - k[j].c) / (3 * dx)
	}
	return &Spline{grid: newGrid(x0, dx, n), k: k}, nil
}

// Eval returns the spline value and first derivative at x, clamped to the
// table range as locate describes.
func (s *Spline) Eval(x float64) (y, dy float64) {
	i, u := s.locate(x)
	k := &s.k[i]
	return k.val(u), k.deriv(u)
}

// Tabulate samples fn at n uniform points over [x0, x1] and fits a spline.
func Tabulate(fn func(float64) float64, x0, x1 float64, n int) (*Spline, error) {
	if n < 3 {
		return nil, fmt.Errorf("potential: tabulate needs >= 3 points")
	}
	dx := (x1 - x0) / float64(n-1)
	y := make([]float64, n)
	for i := range y {
		y[i] = fn(x0 + float64(i)*dx)
	}
	return NewSpline(x0, dx, y)
}
