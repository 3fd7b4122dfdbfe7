package potential

import (
	"tofumd/internal/md/atom"
	"tofumd/internal/md/neighbor"
	"tofumd/internal/vec"
)

// LJ is the Lennard-Jones 12-6 pair potential (Equation 1 of the paper)
// with sigma = epsilon = 1 in the benchmark configuration (Table 2).
type LJ struct {
	Epsilon, Sigma float64
	// Cut is the force cutoff (2.5 sigma in the benchmark).
	Cut float64
	// AtomMass is the particle mass (1 in lj units).
	AtomMass float64
	// FullList forces a full neighbor list, modeling potentials that need
	// one (the 26/124-message scenarios of Fig. 15).
	FullList bool

	lj1, lj2 float64 // force coefficients
	lj3, lj4 float64 // energy coefficients
	cut2     float64
}

// NewLJ builds the potential with precomputed coefficients.
func NewLJ(epsilon, sigma, cut float64) *LJ {
	s6 := sigma * sigma * sigma * sigma * sigma * sigma
	s12 := s6 * s6
	return &LJ{
		Epsilon:  epsilon,
		Sigma:    sigma,
		Cut:      cut,
		AtomMass: 1,
		lj1:      48 * epsilon * s12,
		lj2:      24 * epsilon * s6,
		lj3:      4 * epsilon * s12,
		lj4:      4 * epsilon * s6,
		cut2:     cut * cut,
	}
}

// Name implements Pair.
func (l *LJ) Name() string {
	if l.FullList {
		return "lj/cut/full"
	}
	return "lj/cut"
}

// Cutoff implements Pair.
func (l *LJ) Cutoff() float64 { return l.Cut }

// Mass implements Pair.
func (l *LJ) Mass() float64 { return l.AtomMass }

// NeedsFullList implements Pair.
func (l *LJ) NeedsFullList() bool { return l.FullList }

// Compute implements Pair. With a half list each pair appears once and the
// reaction force is accumulated on j; with a full list each pair appears
// twice (once per endpoint) and only i receives force, with energy and
// virial halved.
func (l *LJ) Compute(a *atom.Arrays, nl *neighbor.List) Result {
	if nl.Mode == neighbor.Full {
		return l.computeFull(a, nl)
	}
	return l.computeHalf(a, nl)
}

// computeHalf is Compute over a half list: the reaction force lands on j.
func (l *LJ) computeHalf(a *atom.Arrays, nl *neighbor.List) Result {
	x, f := a.X, a.F
	start, neigh := nl.Start, nl.Neigh
	cut2, lj1, lj2, lj3, lj4 := l.cut2, l.lj1, l.lj2, l.lj3, l.lj4
	var pe, vir float64
	n := 0
	var in [rowChunk]int32
	for i := 0; i < a.NLocal; i++ {
		xi := x[i]
		fx, fy, fz := f[i].X, f[i].Y, f[i].Z
		for row := neigh[start[i]:start[i+1]]; len(row) > 0; {
			c := min(len(row), rowChunk)
			kept := screen(&in, xi, x, row[:c], cut2)
			row = row[c:]
			n += kept
			for _, j := range in[:kept] {
				xj := &x[j]
				dx, dy, dz := xi.X-xj.X, xi.Y-xj.Y, xi.Z-xj.Z
				r2 := dx*dx + dy*dy + dz*dz
				inv2 := 1 / r2
				inv6 := inv2 * inv2 * inv2
				fpair := inv6 * (lj1*inv6 - lj2) * inv2
				fvx, fvy, fvz := fpair*dx, fpair*dy, fpair*dz
				fx, fy, fz = fx+fvx, fy+fvy, fz+fvz
				fj := &f[j]
				fj.X, fj.Y, fj.Z = fj.X-fvx, fj.Y-fvy, fj.Z-fvz
				pe += inv6 * (lj3*inv6 - lj4)
				vir += r2 * fpair
			}
		}
		f[i] = vec.V3{X: fx, Y: fy, Z: fz}
	}
	return Result{PotentialEnergy: pe, Virial: vir, Interactions: n}
}

// computeFull is Compute over a full list: each pair appears once per
// endpoint, so only i receives force and energy and virial are halved.
func (l *LJ) computeFull(a *atom.Arrays, nl *neighbor.List) Result {
	x, f := a.X, a.F
	start, neigh := nl.Start, nl.Neigh
	cut2, lj1, lj2, lj3, lj4 := l.cut2, l.lj1, l.lj2, l.lj3, l.lj4
	var pe, vir float64
	n := 0
	var in [rowChunk]int32
	for i := 0; i < a.NLocal; i++ {
		xi := x[i]
		fx, fy, fz := f[i].X, f[i].Y, f[i].Z
		for row := neigh[start[i]:start[i+1]]; len(row) > 0; {
			c := min(len(row), rowChunk)
			kept := screen(&in, xi, x, row[:c], cut2)
			row = row[c:]
			n += kept
			for _, j := range in[:kept] {
				xj := &x[j]
				dx, dy, dz := xi.X-xj.X, xi.Y-xj.Y, xi.Z-xj.Z
				r2 := dx*dx + dy*dy + dz*dz
				inv2 := 1 / r2
				inv6 := inv2 * inv2 * inv2
				fpair := inv6 * (lj1*inv6 - lj2) * inv2
				fx, fy, fz = fx+fpair*dx, fy+fpair*dy, fz+fpair*dz
				pe += 0.5 * (inv6 * (lj3*inv6 - lj4))
				vir += 0.5 * r2 * fpair
			}
		}
		f[i] = vec.V3{X: fx, Y: fy, Z: fz}
	}
	return Result{PotentialEnergy: pe, Virial: vir, Interactions: n}
}
