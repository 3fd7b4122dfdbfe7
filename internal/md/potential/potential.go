// Package potential implements the interatomic potentials of the paper's
// benchmarks: the Lennard-Jones 12-6 pair potential and an embedded-atom
// method (EAM) potential for copper (Table 2). Force math is identical
// between the baseline and optimized code paths — the paper does not touch
// it (section 4.1) — so the Fig. 11 accuracy comparison is a pure test of
// the communication layer.
//
// The pair loops screen each neighbor row before evaluating it. About 29%
// of a dense LJ list and over 40% of a copper EAM list lie in the skin
// beyond the force cutoff, so a cutoff branch inside the evaluation loop
// goes either way at random, and each mispredict throws away the sqrt,
// divide and spline chain of the next pairs already in flight. screen
// instead walks a chunk of the row without a data-dependent branch, keeping
// the indices inside the cutoff in list order, and the evaluation loop then
// runs over the kept indices only. Every sum receives the same terms in the
// same order as the plain single-loop form, so forces, energies and virials
// are bit-identical.
package potential

import (
	"tofumd/internal/md/atom"
	"tofumd/internal/md/neighbor"
	"tofumd/internal/vec"
)

// rowChunk is the number of listed neighbors screen takes at once; longer
// rows are screened and evaluated in consecutive chunks. The kept-index
// buffer is a stack array of this length: ranks run concurrently on one
// shared potential, so no scratch may live on it.
const rowChunk = 64

// screen writes the entries of row (at most rowChunk of them) whose squared
// distance from xi is not greater than cut2 to in, in row order, and
// returns how many it kept. Every entry is written and the write position
// advances only on a kept one, so the loop carries no data-dependent
// branch. The predicate !(r2 > cut2) is the kernels' own: a NaN distance
// is kept and evaluated, not dropped.
func screen(in *[rowChunk]int32, xi vec.V3, x []vec.V3, row []int32, cut2 float64) (n int) {
	for _, j := range row {
		xj := x[j]
		dx, dy, dz := xi.X-xj.X, xi.Y-xj.Y, xi.Z-xj.Z
		in[n&(rowChunk-1)] = j // n <= this entry's index < rowChunk
		if !(dx*dx+dy*dy+dz*dz > cut2) {
			n++
		}
	}
	return n
}

// Result accumulates the outputs of a force evaluation.
type Result struct {
	// PotentialEnergy is this rank's share of the potential energy.
	PotentialEnergy float64
	// Virial is this rank's share of the scalar virial sum over pairs of
	// r_ij . f_ij, the input to the pressure (thermo package).
	Virial float64
	// Interactions counts evaluated pair interactions (the cost-model
	// input).
	Interactions int
}

// Add merges another result into r.
func (r *Result) Add(o Result) {
	r.PotentialEnergy += o.PotentialEnergy
	r.Virial += o.Virial
	r.Interactions += o.Interactions
}

// Pair is a single-pass pair potential (LJ).
type Pair interface {
	// Name returns the LAMMPS-style pair name.
	Name() string
	// Cutoff returns the force cutoff.
	Cutoff() float64
	// Mass returns the atomic mass of type 1 (the benchmarks are
	// single-species).
	Mass() float64
	// NeedsFullList reports whether the potential requires a full neighbor
	// list (Tersoff/DeePMD-like potentials, section 4.4).
	NeedsFullList() bool
	// Compute evaluates forces into a.F for every listed pair. With a half
	// list the reaction force is accumulated on j (Newton's 3rd law); with
	// a full list only on i.
	Compute(a *atom.Arrays, nl *neighbor.List) Result
}

// ManyBody is implemented by potentials that need mid-evaluation
// communication (EAM): a density accumulation pass, a reverse+forward
// exchange handled by the caller, then the force pass.
type ManyBody interface {
	Pair
	// AccumulateRho fills a.Rho for locals and ghosts from the pair list.
	AccumulateRho(a *atom.Arrays, nl *neighbor.List) int
	// FinishRho converts the (fully summed) local densities into the
	// embedding derivative a.Fp and returns the embedding energy.
	FinishRho(a *atom.Arrays) float64
	// ComputeForce runs the force pass; a.Fp must be valid for locals and
	// ghosts (the caller forward-communicates it).
	ComputeForce(a *atom.Arrays, nl *neighbor.List) Result
}
