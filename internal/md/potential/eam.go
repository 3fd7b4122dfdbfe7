package potential

import (
	"fmt"
	"math"
	"math/bits"

	"tofumd/internal/md/atom"
	"tofumd/internal/md/neighbor"
	"tofumd/internal/vec"
)

// EAM is an embedded-atom-method potential (Equation 2 of the paper):
// U = sum_i F(rho_i) + 1/2 sum_{ij} phi(r_ij), rho_i = sum_j psi(r_ij).
//
// The analytic forms substitute for the tabulated Cu_u3.eam file the paper
// uses (which we cannot ship): a Finnis-Sinclair square-root embedding
// F(rho) = -A sqrt(rho), a quadratic density psi(r) = (rc - r)^2, and a
// screened exponential pair repulsion phi(r) = B exp(-beta (r - r_nn)),
// shifted to zero at the cutoff. The amplitudes A and B are solved at
// construction so that the FCC copper crystal (a = 3.615 A, Table 2) is the
// exact energy minimum with the experimental cohesive energy (3.54 eV) —
// the crystal is mechanically stable, as a fitted table would be. Like
// LAMMPS, the engine evaluates the functions through cubic-spline tables.
//
// EAM is the paper's ManyBody case: after the density pass, ghost-atom
// densities must be reverse-communicated to their owners and the embedding
// derivative forward-communicated back — the "two additional communications
// during the pair stage" of section 4.1.
type EAM struct {
	// Cut is the force cutoff (4.95 A in Table 2).
	Cut float64
	// AtomMass is the atomic mass (63.55 g/mol for Cu).
	AtomMass float64
	// A and B are the solved embedding and pair amplitudes.
	A, B float64

	// pair fuses the pair term phi(r) and the density contribution psi(r),
	// which share one r grid, so a pair reads both from one 64-byte record.
	pair     []pairKnot
	pairGrid grid
	f        *Spline // embedding F(rho)

	cut2 float64
}

// pairKnot is one r interval of the fused phi/psi table.
type pairKnot struct{ phi, psi knot }

// fusePair interleaves two splines tabulated on the same grid into one
// table. The fused lookup locates r once for both, so it refuses splines
// whose (x0, dx, n) differ.
func fusePair(phi, psi *Spline) (grid, []pairKnot, error) {
	if phi.x0 != psi.x0 || phi.dx != psi.dx || phi.n != psi.n {
		return grid{}, nil, fmt.Errorf("potential: EAM phi grid (%v, %v, %d) and psi grid (%v, %v, %d) differ",
			phi.x0, phi.dx, phi.n, psi.x0, psi.dx, psi.n)
	}
	pair := make([]pairKnot, phi.n)
	for i := range pair {
		pair[i] = pairKnot{phi: phi.k[i], psi: psi.k[i]}
	}
	return phi.grid, pair, nil
}

// EAM analytic parameters (copper).
const (
	eamBeta     = 2.0   // 1/A, pair repulsion decay
	eamRNN      = 2.556 // A, Cu nearest-neighbor distance
	eamLatA     = 3.615 // A, Cu lattice constant
	eamCohesive = 3.54  // eV, Cu cohesive energy
	eamTableN   = 2048
)

// fccShells lists the neighbor multiplicities and distance factors (times
// the lattice constant) of the FCC lattice out to the fourth shell, enough
// to cover cutoffs below a*sqrt(2.5).
var fccShells = []struct {
	mult int
	fac  float64
}{
	{12, 1 / math.Sqrt2},
	{6, 1},
	{24, math.Sqrt(1.5)},
	{12, math.Sqrt2},
}

// NewEAMCu builds the copper EAM for the given cutoff, solving the
// amplitudes so the perfect FCC crystal at a = 3.615 A has zero pressure
// and the experimental cohesive energy, then tabulating all three functions
// on cubic splines.
func NewEAMCu(cut float64) (*EAM, error) {
	if cut <= eamRNN || cut >= eamLatA*math.Sqrt(2.5) {
		return nil, fmt.Errorf("potential: EAM cutoff %.3f outside supported range (%.3f, %.3f)",
			cut, eamRNN, eamLatA*math.Sqrt(2.5))
	}
	e := &EAM{Cut: cut, AtomMass: 63.55, cut2: cut * cut}

	psiRaw := func(r float64) float64 {
		if r >= cut {
			return 0
		}
		d := cut - r
		return d * d
	}
	phiRaw := func(r float64) float64 { // unit amplitude, zero at cutoff
		if r >= cut {
			return 0
		}
		return math.Exp(-eamBeta*(r-eamRNN)) - math.Exp(-eamBeta*(cut-eamRNN))
	}
	sums := func(a float64) (rho, ph float64) {
		for _, s := range fccShells {
			r := a * s.fac
			if r >= cut {
				continue
			}
			rho += float64(s.mult) * psiRaw(r)
			ph += float64(s.mult) * phiRaw(r)
		}
		return
	}
	// Per-atom crystal energy is linear in (A, B):
	//   E(a) = -A sqrt(rho(a)) + B/2 phsum(a).
	// Impose E(a0) = -Ecoh and dE/da(a0) = 0.
	const h = 1e-6
	rho0, ph0 := sums(eamLatA)
	rhoP, phP := sums(eamLatA + h)
	rhoM, phM := sums(eamLatA - h)
	dsq := (math.Sqrt(rhoP) - math.Sqrt(rhoM)) / (2 * h)
	dph := (phP - phM) / (2 * h)
	a11, a12 := -math.Sqrt(rho0), 0.5*ph0
	a21, a22 := -dsq, 0.5*dph
	det := a11*a22 - a12*a21
	if math.Abs(det) < 1e-12 {
		return nil, fmt.Errorf("potential: EAM calibration singular at cutoff %.3f", cut)
	}
	e.A = (-eamCohesive*a22 - a12*0) / det
	e.B = (a11*0 + eamCohesive*a21) / det
	if e.A <= 0 || e.B <= 0 {
		return nil, fmt.Errorf("potential: EAM calibration produced non-physical amplitudes A=%.4f B=%.4f", e.A, e.B)
	}

	phi, err := Tabulate(func(r float64) float64 { return e.B * phiRaw(r) }, 0.5, cut, eamTableN)
	if err != nil {
		return nil, err
	}
	psi, err := Tabulate(psiRaw, 0.5, cut, eamTableN)
	if err != nil {
		return nil, err
	}
	if e.pairGrid, e.pair, err = fusePair(phi, psi); err != nil {
		return nil, err
	}
	rhoMax := 4 * rho0 // generous headroom over the equilibrium density
	e.f, err = Tabulate(func(rho float64) float64 {
		return -e.A * math.Sqrt(rho)
	}, 1e-6, rhoMax, eamTableN)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// pairAt locates r in the fused phi/psi table.
func (e *EAM) pairAt(r float64) (*pairKnot, float64) {
	i, u := e.pairGrid.locate(r)
	return &e.pair[i], u
}

// PsiAt returns the density contribution psi(r) from the spline table.
func (e *EAM) PsiAt(r float64) float64 { k, u := e.pairAt(r); return k.psi.val(u) }

// DPsiAt returns psi'(r).
func (e *EAM) DPsiAt(r float64) float64 { k, u := e.pairAt(r); return k.psi.deriv(u) }

// PhiAt returns the pair term phi(r).
func (e *EAM) PhiAt(r float64) float64 { k, u := e.pairAt(r); return k.phi.val(u) }

// DPhiAt returns phi'(r).
func (e *EAM) DPhiAt(r float64) float64 { k, u := e.pairAt(r); return k.phi.deriv(u) }

// FAt returns the embedding energy F(rho).
func (e *EAM) FAt(rho float64) float64 { v, _ := e.f.Eval(rho); return v }

// FpAt returns the embedding derivative F'(rho).
func (e *EAM) FpAt(rho float64) float64 { _, d := e.f.Eval(rho); return d }

// Name implements Pair.
func (e *EAM) Name() string { return "eam" }

// Cutoff implements Pair.
func (e *EAM) Cutoff() float64 { return e.Cut }

// Mass implements Pair.
func (e *EAM) Mass() float64 { return e.AtomMass }

// NeedsFullList implements Pair.
func (e *EAM) NeedsFullList() bool { return false }

// AccumulateRho implements ManyBody: the first pass sums psi(r) into Rho of
// both endpoints (ghosts included; the caller reverse-communicates ghost
// densities home). Returns the interaction count for the cost model.
func (e *EAM) AccumulateRho(a *atom.Arrays, nl *neighbor.List) int {
	return e.AccumulateRhoKept(a, nl, nil)
}

// AccumulateRhoKept implements ManyBody: AccumulateRho that also records
// which listed pairs it kept, one mask per row chunk in list order, into
// *kept (reused, resliced to length zero first). A nil kept records
// nothing.
func (e *EAM) AccumulateRhoKept(a *atom.Arrays, nl *neighbor.List, kept *[]uint64) int {
	x, rho := a.X, a.Rho
	start, neigh := nl.Start, nl.Neigh
	cut2 := e.cut2
	count := 0
	var ks []uint64
	if kept != nil {
		ks = (*kept)[:0]
	}
	for i := 0; i < a.NLocal; i++ {
		xi := x[i]
		// j != i, so rho_i can stay in a register until the row ends.
		rhoi := rho[i]
		for row := neigh[start[i]:start[i+1]]; len(row) > 0; {
			c := min(len(row), rowChunk)
			chunk := row[:c]
			row = row[c:]
			m := screenMask(xi, x, chunk, cut2)
			if kept != nil {
				ks = append(ks, m)
			}
			count += bits.OnesCount64(m)
			for ; m != 0; m &= m - 1 {
				j := chunk[bits.TrailingZeros64(m)]
				xj := &x[j]
				dx, dy, dz := xi.X-xj.X, xi.Y-xj.Y, xi.Z-xj.Z
				r2 := dx*dx + dy*dy + dz*dz
				k, u := e.pairAt(math.Sqrt(r2))
				p := k.psi.val(u)
				rhoi += p
				rho[j] += p
			}
		}
		rho[i] = rhoi
	}
	if kept != nil {
		*kept = ks
	}
	return count
}

// FinishRho implements ManyBody: with the owners' densities complete, it
// evaluates the embedding derivative into Fp for locals and returns the
// total embedding energy of this rank's locals.
func (e *EAM) FinishRho(a *atom.Arrays) float64 {
	var energy float64
	for i := 0; i < a.NLocal; i++ {
		f, df := e.f.Eval(a.Rho[i])
		energy += f
		a.Fp[i] = df
	}
	return energy
}

// ComputeForce implements ManyBody: with Fp valid for locals and ghosts, the
// second pass evaluates pair + embedding forces. The neighbor list is half;
// reaction forces land on j (ghosts included) and flow home in the reverse
// stage.
func (e *EAM) ComputeForce(a *atom.Arrays, nl *neighbor.List) Result {
	return e.ComputeForceKept(a, nl, nil)
}

// ComputeForceKept implements ManyBody: ComputeForce over the pairs that
// AccumulateRhoKept recorded in kept, without screening them again. kept
// is valid only for the list and positions of the density pass that wrote
// it; a mask whose chunk count differs from nl's panics before any force
// is written. A nil kept screens each chunk, as ComputeForce does.
func (e *EAM) ComputeForceKept(a *atom.Arrays, nl *neighbor.List, kept []uint64) Result {
	x, f, fp := a.X, a.F, a.Fp
	start, neigh := nl.Start, nl.Neigh
	if kept != nil {
		if n := rowChunks(start[:a.NLocal+1]); n != len(kept) {
			panic(fmt.Sprintf("potential: EAM kept mask holds %d row chunks, the list has %d; "+
				"the mask is valid only for the list its density pass screened", len(kept), n))
		}
	}
	cut2 := e.cut2
	var pe, vir float64
	n, ks := 0, kept
	for i := 0; i < a.NLocal; i++ {
		xi := x[i]
		fx, fy, fz := f[i].X, f[i].Y, f[i].Z
		fpi := fp[i]
		for row := neigh[start[i]:start[i+1]]; len(row) > 0; {
			c := min(len(row), rowChunk)
			chunk := row[:c]
			row = row[c:]
			var m uint64
			if kept != nil {
				m, ks = ks[0], ks[1:]
			} else {
				m = screenMask(xi, x, chunk, cut2)
			}
			n += bits.OnesCount64(m)
			for ; m != 0; m &= m - 1 {
				j := chunk[bits.TrailingZeros64(m)]
				xj := &x[j]
				dx, dy, dz := xi.X-xj.X, xi.Y-xj.Y, xi.Z-xj.Z
				r2 := dx*dx + dy*dy + dz*dz
				r := math.Sqrt(r2)
				k, u := e.pairAt(r)
				// f(r) = -[phi'(r) + (Fp_i + Fp_j) psi'(r)] rhat
				fmag := -(k.phi.deriv(u) + (fpi+fp[j])*k.psi.deriv(u)) / r
				fvx, fvy, fvz := fmag*dx, fmag*dy, fmag*dz
				fx, fy, fz = fx+fvx, fy+fvy, fz+fvz
				fj := &f[j]
				fj.X, fj.Y, fj.Z = fj.X-fvx, fj.Y-fvy, fj.Z-fvz
				pe += k.phi.val(u)
				vir += r2 * fmag
			}
		}
		f[i] = vec.V3{X: fx, Y: fy, Z: fz}
	}
	return Result{PotentialEnergy: pe, Virial: vir, Interactions: n}
}

// rowChunks returns how many row chunks the pair loops walk over the rows
// that start bounds: one per rowChunk listed neighbors or part of it.
func rowChunks(start []int32) int {
	n := 0
	for i := 1; i < len(start); i++ {
		n += (int(start[i]-start[i-1]) + rowChunk - 1) / rowChunk
	}
	return n
}

// Compute implements Pair for contexts without a communication layer: an
// isolated cluster with no ghost atoms (unit tests). It panics when ghosts
// are present, because their densities would need the reverse/forward
// exchange that only the simulation driver provides.
func (e *EAM) Compute(a *atom.Arrays, nl *neighbor.List) Result {
	if a.NGhost != 0 {
		panic("potential: EAM.Compute requires the driver's exchange when ghosts exist")
	}
	a.EnableEAM()
	a.ZeroRho()
	n := e.AccumulateRho(a, nl)
	embed := e.FinishRho(a)
	res := e.ComputeForce(a, nl)
	res.PotentialEnergy += embed
	res.Interactions += n
	return res
}
