// Package oracle is the table of physics oracles: each row names an
// invariant, the physical reference it rests on and the bound its reading
// is held to. Tests measure a deviation and call Check. It imports nothing
// from the MD code, so every package's tests, sim's included, can use it.
package oracle

import "fmt"

// Row is one oracle. Reference states the physics and why Tol is what it
// is. A bit-identity row has Tol 0 and reads a mismatch count or a distance.
type Row struct {
	Name, Reference string
	Tol             float64
}

// Rows is the table. Each Tol is the bound its test held before the table
// existed; a row may tighten, never loosen.
var Rows = []Row{
	// Forces.
	{"forces-brute",
		"Distributed forces, ghost contributions folded home, equal an all-pairs periodic sum over the gathered atoms for every variant, potential, Newton setting and shell count: only summation order differs. Worst |Δf| / (1 + |f|); reads at most 4.0e-14.", 1e-9},

	// Energy.
	{"nve-lj-10",
		"NVE conserves total energy: over the LJ melt's first 10 steps, before any reneighbor, only velocity Verlet's O(dt²) error and the unshifted 2.5σ cutoff move it. Reads 2.8e-4 per atom at -cpu 1 and 4, and 8.8e-4 under a lost ghost force (F[0] halved per rank). The bound 5e-4 sits near their geometric mean, a factor 1.8 from each, so the clean run passes with margin and the defect fails.", 5e-4},
	{"nve-lj-50",
		"Over 50 steps the LAMMPS melt accrues the known drift of its unshifted cutoff and of pairs entering the cutoff between reneighbors (skin 0.3σ, every 20 steps): bounded, not zero. Reads 7.2e-3 per atom.", 2e-2},
	{"nve-eam-20",
		"NVE on the 300 K Cu EAM crystal over 20 steps with check-yes rebuilds: splined φ, ρ and F are C¹ and vanish smoothly at the cutoff, so only the integrator's O(dt²) error remains. Reads 3.4e-5 eV/atom.", 2e-4},
	{"nve-tersoff-25",
		"NVE on 300 K diamond silicon under Tersoff over 25 steps: the smooth fC taper leaves only the integrator's O(dt²) error; a missed three-body ghost or reverse-stage term breaks it first. Reads 4.9e-4 eV/atom.", 5e-4},
	{"tersoff-cohesive",
		"The 300 K diamond crystal starts near Tersoff silicon's cohesive energy, −4.63 eV/atom, plus 3/2 kT ≈ 0.04 eV of kinetic energy. Reading: |e0 − (−4.6)|, 9.3e-3 eV/atom.", 0.1},
	{"nve-harmonic",
		"Velocity Verlet conserves a shadow Hamiltonian: on a unit spring at dt 0.01 the energy error stays O(dt²) ≈ 1e-5 over 10k steps (~16 periods) and does not grow. Reads 3.2e-6.", 1e-4},

	// Momentum.
	{"momentum",
		"Pair forces obey Newton's third law in a periodic box, so net momentum is an exact invariant of velocity Verlet; over 40 LJ steps only summation rounding moves it: reads 1.5e-13. A lost ghost force (F[0] halved per rank) reads 4.2, and one pair's force landing on both atoms with the same sign reads 8.8.", 1e-9},
	{"momentum-initial",
		"Velocity initialization subtracts the net momentum, so the melt starts at rest up to rounding: reads 2.2e-13.", 1e-9},
	{"tersoff-net-force",
		"Tersoff is translation invariant, so the forces on an isolated 12-atom cluster sum to zero only if every three-body derivative lands on i, j and k. Reads 4.8e-13.", 1e-9},

	// Atom count.
	{"atom-count",
		"Migration hands each atom to exactly one new owner, however hot the system and however many shells the ghost region spans. Reading: atoms gained or lost over the run.", 0},

	// Decomposition and pattern invariance.
	{"decomp-tersoff",
		"Silicon on 2×2×2 and 2×3×2 nodes differs only in force summation order, so after 8 steps positions agree to rounding grown by the dynamics: reads 4.0e-15 Å. A missed ghost or reverse-stage term is orders larger.", 1e-7},
	{"decomp-lj-eam",
		"LJ and EAM on 2×2×2, 2×3×2 and 2×2×3 nodes against 1×1×1 after 8 steps differ only in summation order: readings 1.8e-15 σ (LJ) and 3.6e-15 Å (EAM). A lost ghost force (F[0] halved per rank) reads 3.3e-3 σ.", 1e-12},
	{"dump-frames",
		"An XYZ frame lists atoms by ID, so the same system dumped from 2×2×2 and 2×3×2 nodes is byte-identical. Reading: differing frames.", 0},
	{"restart-reshape",
		"A checkpoint holds every atom independent of the decomposition; resuming on another machine shape restores all of them. Reading: atoms gained or lost.", 0},
	{"restart-continue",
		"A run resumed from a checkpoint continues the uninterrupted trajectory; restored atoms sit in ID order, so force sums may differ by an ULP, never visibly after 10 steps. Reads 1.8e-15 σ.", 1e-12},

	// Variants (Fig. 11: optimizations do not change the physics).
	{"variants-same-pattern",
		"Variants sharing a communication pattern move identical bytes to identical summation sites, so ref and utofu-3stage (3-stage), and 4tni-p2p, 6tni-p2p, mpi-p2p and opt (p2p), are bit-identical within their family. Reading: max |Δx|.", 0},
	{"variants-temperature",
		"Across patterns (ref against 4tni-p2p) pair sums sit on different ranks, so trajectories agree only statistically: relative temperature after 10 steps, which reads 0.", 5e-3},
	{"variants-pe",
		"Across patterns, relative potential energy per atom after 10 steps; reads 0.", 5e-3},
	{"variants-pressure",
		"Across patterns, relative virial pressure after 10 steps, the most order-sensitive observable; reads 3.6e-16.", 1e-2},
	{"variants-positions",
		"Across patterns, max |Δx| after 10 steps; reads 8.9e-16 σ.", 5e-3},
	{"variants-tersoff",
		"Tersoff under ref (3-stage) and opt (p2p) differs in summation sites only: max |Δx| after 8 steps, 3.6e-15 Å.", 1e-7},
	{"variants-eam",
		"EAM under ref and opt sums densities and embedding derivatives in different orders: max |Δx| after 5 steps, 3.6e-15 Å.", 1e-6},
	{"half-newton-once",
		"With a half list and Newton on, a pair straddling a sub-box boundary is stored by exactly one owner: the z, y, x coordinate tie-break picks one side. Reading: |stored − 1|.", 0},

	// Lattice Boltzmann.
	{"lbm-mass",
		"BGK collision conserves density and streaming only moves it: total mass is exact up to summation rounding. Relative; reads 4.6e-14.", 1e-12},
	{"lbm-momentum",
		"BGK collision conserves momentum in a periodic box: net momentum per cell is exact up to rounding. Largest component; reads 3.5e-18.", 1e-14},
	{"lbm-viscosity",
		"A transverse shear wave decays as exp(−ν k² t) with ν = (τ − 1/2)/3; the measured ν matches to the lattice's O(k²) error at 16 cells. Relative; reads 0.019.", 0.05},
	{"lbm-transports",
		"uTofu and MPI move the same face planes; only timing differs, so the distributions are bit-identical. Reading: fingerprint mismatches.", 0},
}

// Check returns nil when the reading dev is within the named row's bound,
// and otherwise an error naming the row, the reading, the bound and the
// reference. A NaN reading and an unknown name are errors.
func Check(name string, dev float64) error {
	for _, r := range Rows {
		if r.Name != name {
			continue
		}
		if dev <= r.Tol { // false for NaN
			return nil
		}
		return fmt.Errorf("oracle %s: reading %.3g exceeds bound %g (%s)", r.Name, dev, r.Tol, r.Reference)
	}
	return fmt.Errorf("oracle: no row named %q", name)
}
