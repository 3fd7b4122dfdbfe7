package potential

import (
	"math"
	"testing"
)

// splineSin fits the test spline used throughout: sin(x) on [0, pi], which
// happens to satisfy the natural boundary condition (sin″ = -sin = 0 at
// both ends), so the fit converges to the analytic function everywhere
// including the end intervals.
func splineSin(t *testing.T, n int) *Spline {
	t.Helper()
	s, err := Tabulate(math.Sin, 0, math.Pi, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSplineKnotExactness(t *testing.T) {
	const n = 33
	s := splineSin(t, n)
	dx := math.Pi / float64(n-1)
	for i := 0; i < n; i++ {
		x := float64(i) * dx
		y, _ := s.Eval(x)
		if want := math.Sin(x); math.Abs(y-want) > 1e-13 {
			t.Errorf("knot %d: y(%v) = %v, want sample %v", i, x, y, want)
		}
	}
}

func TestSplineInteriorAccuracy(t *testing.T) {
	s := splineSin(t, 65)
	for x := 0.05; x < math.Pi; x += 0.1 {
		y, dy := s.Eval(x)
		if math.Abs(y-math.Sin(x)) > 1e-6 {
			t.Errorf("y(%v) = %v, want %v", x, y, math.Sin(x))
		}
		if math.Abs(dy-math.Cos(x)) > 1e-4 {
			t.Errorf("y'(%v) = %v, want %v", x, dy, math.Cos(x))
		}
	}
}

// TestSplineDerivativeContinuity checks C1 continuity at every interior
// knot: the derivative evaluated just below and just above a knot must
// agree to the construction tolerance of the tridiagonal solve.
func TestSplineDerivativeContinuity(t *testing.T) {
	const n = 33
	s := splineSin(t, n)
	dx := math.Pi / float64(n-1)
	const eps = 1e-9
	for i := 1; i < n-1; i++ {
		x := float64(i) * dx
		_, dyL := s.Eval(x - eps)
		_, dyR := s.Eval(x + eps)
		if math.Abs(dyL-dyR) > 1e-6 {
			t.Errorf("knot %d: y'(%v-) = %v, y'(%v+) = %v", i, x, dyL, x, dyR)
		}
	}
}

// TestSplineNaturalBoundary verifies the natural boundary condition y″ = 0
// at both table ends analytically from the fitted coefficients: the second
// derivative of interval j at local offset u is 2c_j + 6d_j u, so y″(x0)
// = 2c_0 and y″(x_{n-1}) = 2c_{n-2} + 6d_{n-2}dx. This pins the end
// intervals the deleted staging vector `m` was once suspected of feeding
// (the condition is in fact carried by z[0] = 0 and c_{n-1} = 0).
func TestSplineNaturalBoundary(t *testing.T) {
	// A function with non-zero curvature at the ends, so the test would
	// catch a boundary condition that merely copied the analytic y''.
	f := func(x float64) float64 { return math.Exp(x) }
	const n = 17
	s, err := Tabulate(f, 0, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	if got := 2 * s.k[0].c; got != 0 {
		t.Errorf("y''(x0) = %v, natural BC wants 0", got)
	}
	last := s.k[s.n-2]
	if got := 2*last.c + 6*last.d*s.dx; math.Abs(got) > 1e-10 {
		t.Errorf("y''(x_end) = %v, natural BC wants 0", got)
	}
	// c_{n-1} itself is the back-substitution seed and must be exactly zero.
	if c := s.k[s.n-1].c; c != 0 {
		t.Errorf("c[n-1] = %v, want 0", c)
	}
}

// TestSplineClampBelow pins the out-of-range contract on the low side:
// arguments below x0 evaluate exactly as x0 does (value held at the first
// sample, derivative at the first interval's left edge slope).
func TestSplineClampBelow(t *testing.T) {
	s := splineSin(t, 33)
	yAt, dyAt := s.Eval(0)
	for _, x := range []float64{-1e-12, -0.5, -1e6, math.Inf(-1)} {
		y, dy := s.Eval(x)
		if y != yAt || dy != dyAt {
			t.Errorf("Eval(%v) = (%v, %v), want clamp to Eval(x0) = (%v, %v)",
				x, y, dy, yAt, dyAt)
		}
	}
}

// TestSplineClampAbove pins the high side: arguments above the last sample
// evaluate exactly as the table end does, instead of extrapolating the last
// interval's cubic (the pre-fix behavior, which for the EAM pair table
// diverges quadratically past the cutoff).
func TestSplineClampAbove(t *testing.T) {
	const n = 33
	s := splineSin(t, n)
	hi := s.x0 + float64(n-1)*s.dx
	yEnd, dyEnd := s.Eval(hi)
	for _, x := range []float64{hi + 1e-12, hi + 0.5, hi + 1e6, math.Inf(1)} {
		y, dy := s.Eval(x)
		if y != yEnd || dy != dyEnd {
			t.Errorf("Eval(%v) = (%v, %v), want clamp to Eval(end) = (%v, %v)",
				x, y, dy, yEnd, dyEnd)
		}
	}
	// The clamped end value is the last sample itself.
	if math.Abs(yEnd-math.Sin(hi)) > 1e-13 {
		t.Errorf("end value %v, want last sample %v", yEnd, math.Sin(hi))
	}
}

// TestSplineJustInsideRange verifies points within the table but within one
// ULP-ish distance of the edges index the correct end intervals and agree
// with the analytic function.
func TestSplineJustInsideRange(t *testing.T) {
	const n = 33
	s := splineSin(t, n)
	hi := s.x0 + float64(n-1)*s.dx
	for _, x := range []float64{1e-9, hi - 1e-9} {
		y, _ := s.Eval(x)
		if math.Abs(y-math.Sin(x)) > 1e-6 {
			t.Errorf("y(%v) = %v, want %v", x, y, math.Sin(x))
		}
	}
}

func TestSplineRejectsBadInput(t *testing.T) {
	if _, err := NewSpline(0, 0.1, []float64{1, 2}); err == nil {
		t.Error("accepted 2 samples")
	}
	if _, err := NewSpline(0, 0, []float64{1, 2, 3}); err == nil {
		t.Error("accepted dx = 0")
	}
	if _, err := NewSpline(0, -0.1, []float64{1, 2, 3}); err == nil {
		t.Error("accepted dx < 0")
	}
	if _, err := Tabulate(math.Sin, 0, 1, 2); err == nil {
		t.Error("tabulate accepted 2 points")
	}
}
