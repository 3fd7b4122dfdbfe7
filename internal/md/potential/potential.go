// Package potential implements the interatomic potentials of the paper's
// benchmarks: the Lennard-Jones 12-6 pair potential and an embedded-atom
// method (EAM) potential for copper (Table 2). Force math is identical
// between the baseline and optimized code paths — the paper does not touch
// it (section 4.1) — so the Fig. 11 accuracy comparison is a pure test of
// the communication layer.
//
// The pair loops screen each neighbor row before evaluating it. About 29%
// of a dense LJ list and 53% of a copper EAM list lie in the skin beyond
// the force cutoff, so a cutoff branch inside the evaluation loop goes
// either way at random, and each mispredict throws away the sqrt, divide
// and spline chain of the next pairs already in flight. A screen instead
// walks a chunk of the row without a data-dependent branch, and the
// evaluation loop then runs over the kept pairs only, in list order. LJ's
// screen (pairChunk.screen) keeps each kept pair's displacement and squared
// distance beside its index, so the evaluation loop reads them back from
// the chunk record instead of loading x[j] and subtracting again; only the
// reaction force touches the neighbor's memory. Every sum receives the same
// terms, from the same expressions, in the same order as the plain
// single-loop form, so forces, energies and virials are bit-identical.
//
// EAM screens once per step. Its density pass records what it kept as one
// bit mask per row chunk (screenMask), in a slice the caller owns, and its
// force pass, which sees the same list and positions, walks each chunk's
// set bits instead of screening again: the same pairs in the same order.
package potential

import (
	"tofumd/internal/md/atom"
	"tofumd/internal/md/neighbor"
	"tofumd/internal/vec"
)

// rowChunk is the number of listed neighbors a screen takes at once;
// longer rows are screened and evaluated in consecutive chunks. LJ's
// pairChunk holds one chunk's kept pairs on the kernel's stack, and one
// uint64 mask holds an EAM chunk's kept set, in the caller's slice: ranks
// run concurrently on one shared potential, so no scratch may live on it.
const rowChunk = 64

// screenMask is pairChunk.screen's predicate recorded as a mask: bit b is
// set when row[b] (at most rowChunk entries) is not farther than cut2 from
// xi. It too carries no data-dependent branch; a NaN distance sets its bit.
//
// It stays a call: inlined, the mask's bits index the caller's loads, and
// the compiler keeps a value that feeds a load address out of a CMOV, so
// the screen would branch on every pair again.
//
//go:noinline
func screenMask(xi vec.V3, x []vec.V3, row []int32, cut2 float64) (m uint64) {
	for b, j := range row {
		xj := x[j]
		dx, dy, dz := xi.X-xj.X, xi.Y-xj.Y, xi.Z-xj.Z
		set := m | 1<<(b&(rowChunk-1))
		if !(dx*dx+dy*dy+dz*dz > cut2) {
			m = set
		}
	}
	return m
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
	// AccumulateRhoKept is AccumulateRho that also records in *kept
	// which listed pairs are inside the cutoff, for ComputeForceKept.
	// The caller owns the mask: ranks run concurrently on one potential.
	AccumulateRhoKept(a *atom.Arrays, nl *neighbor.List, kept *[]uint64) int
	// FinishRho converts the (fully summed) local densities into the
	// embedding derivative a.Fp and returns the embedding energy.
	FinishRho(a *atom.Arrays) float64
	// ComputeForce runs the force pass; a.Fp must be valid for locals and
	// ghosts (the caller forward-communicates it).
	ComputeForce(a *atom.Arrays, nl *neighbor.List) Result
	// ComputeForceKept is ComputeForce over the pairs kept records,
	// without screening the list again. kept must come from
	// AccumulateRhoKept on the same list and positions.
	ComputeForceKept(a *atom.Arrays, nl *neighbor.List, kept []uint64) Result
}
