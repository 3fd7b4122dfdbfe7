// Package atom stores the per-rank atom data of the MD engine in the layout
// LAMMPS uses: local (owned) atoms first, ghost atoms appended behind them
// in one contiguous array (section 3.4, Fig. 9). Positions and forces cover
// locals plus ghosts; velocities exist only for locals. The contiguous
// layout is what makes the paper's direct-RDMA forward stage possible: a
// remote rank can write ghost positions straight into the position array at
// a known offset (the recv_ptr).
package atom

import (
	"fmt"

	"tofumd/internal/vec"
)

// Arrays is the per-rank atom storage.
type Arrays struct {
	// NLocal is the number of owned atoms; they occupy indices [0, NLocal).
	NLocal int
	// NGhost is the number of ghost atoms, indices [NLocal, NLocal+NGhost).
	NGhost int

	// ID holds global atom ids for locals and ghosts.
	ID []int64
	// Type holds 1-based atom types for locals and ghosts.
	Type []int32
	// X holds positions for locals and ghosts.
	X []vec.V3
	// V holds velocities for locals only (len >= NLocal).
	V []vec.V3
	// F holds forces for locals and ghosts; ghost forces are sent home in
	// the reverse stage.
	F []vec.V3

	// Rho and Fp are the EAM work arrays (electron density and d F/d rho),
	// sized with X when an EAM potential is active.
	Rho []float64
	Fp  []float64
	eam bool
}

// New returns empty storage with capacity hints for n local atoms.
func New(n int) *Arrays {
	return &Arrays{
		ID:   make([]int64, 0, n),
		Type: make([]int32, 0, n),
		X:    make([]vec.V3, 0, n),
		V:    make([]vec.V3, 0, n),
		F:    make([]vec.V3, 0, n),
	}
}

// EnableEAM sizes the EAM work arrays alongside X from now on.
func (a *Arrays) EnableEAM() {
	a.eam = true
	a.syncEAM()
}

func (a *Arrays) syncEAM() {
	if !a.eam {
		return
	}
	n := len(a.X)
	for len(a.Rho) < n {
		a.Rho = append(a.Rho, 0)
	}
	for len(a.Fp) < n {
		a.Fp = append(a.Fp, 0)
	}
	a.Rho = a.Rho[:n]
	a.Fp = a.Fp[:n]
}

// Total returns the number of stored atoms (locals + ghosts).
func (a *Arrays) Total() int { return a.NLocal + a.NGhost }

// AddLocal appends an owned atom. Ghosts must not be present when locals
// are added (locals always precede ghosts); it panics otherwise.
func (a *Arrays) AddLocal(id int64, typ int32, x, v vec.V3) {
	if a.NGhost != 0 {
		panic("atom: AddLocal with ghosts present")
	}
	a.ID = append(a.ID, id)
	a.Type = append(a.Type, typ)
	a.X = append(a.X, x)
	a.V = append(a.V, v)
	a.F = append(a.F, vec.V3{})
	a.NLocal++
	a.syncEAM()
}

// AddGhost appends a ghost atom and returns its index.
func (a *Arrays) AddGhost(id int64, typ int32, x vec.V3) int {
	idx := a.Total()
	a.ID = append(a.ID[:idx], id)
	a.Type = append(a.Type[:idx], typ)
	a.X = append(a.X[:idx], x)
	a.F = append(a.F[:idx], vec.V3{})
	a.NGhost++
	a.syncEAM()
	return idx
}

// GrowGhosts reserves room for n more ghosts and returns the index of the
// first; the caller fills ID/Type/X directly. The simulation does not use
// it: ghosts arrive as border records (AddGhost), and the pre-registered
// forward puts then write their positions in place through the position
// array's registered view.
func (a *Arrays) GrowGhosts(n int) int {
	first := a.Total()
	for i := 0; i < n; i++ {
		a.ID = append(a.ID, 0)
		a.Type = append(a.Type, 0)
		a.X = append(a.X, vec.V3{})
		a.F = append(a.F, vec.V3{})
	}
	a.NGhost += n
	a.syncEAM()
	return first
}

// ClearGhosts discards all ghosts, keeping locals.
func (a *Arrays) ClearGhosts() {
	n := a.NLocal
	a.ID = a.ID[:n]
	a.Type = a.Type[:n]
	a.X = a.X[:n]
	a.F = a.F[:n]
	a.NGhost = 0
	a.syncEAM()
}

// ZeroForces clears the force accumulators of locals and ghosts.
func (a *Arrays) ZeroForces() {
	for i := range a.F {
		a.F[i] = vec.V3{}
	}
}

// ZeroRho clears the EAM density accumulators.
func (a *Arrays) ZeroRho() {
	for i := range a.Rho {
		a.Rho[i] = 0
	}
}

// RemoveLocal removes the owned atom at index i by swapping the last local
// into its place (order is not preserved, as in LAMMPS). Ghosts must be
// absent (exchange happens after ClearGhosts); it panics otherwise.
func (a *Arrays) RemoveLocal(i int) {
	if a.NGhost != 0 {
		panic("atom: RemoveLocal with ghosts present")
	}
	if i < 0 || i >= a.NLocal {
		panic(fmt.Sprintf("atom: RemoveLocal index %d of %d", i, a.NLocal))
	}
	last := a.NLocal - 1
	a.ID[i] = a.ID[last]
	a.Type[i] = a.Type[last]
	a.X[i] = a.X[last]
	a.V[i] = a.V[last]
	a.F[i] = a.F[last]
	a.ID = a.ID[:last]
	a.Type = a.Type[:last]
	a.X = a.X[:last]
	a.V = a.V[:last]
	a.F = a.F[:last]
	a.NLocal = last
	a.syncEAM()
}

// Check validates the internal invariants; tests call it after mutating
// operations.
func (a *Arrays) Check() error {
	n := a.Total()
	if len(a.ID) != n || len(a.Type) != n || len(a.X) != n || len(a.F) != n {
		return fmt.Errorf("atom: array lengths %d/%d/%d/%d != %d",
			len(a.ID), len(a.Type), len(a.X), len(a.F), n)
	}
	if len(a.V) < a.NLocal {
		return fmt.Errorf("atom: V holds %d < %d locals", len(a.V), a.NLocal)
	}
	if a.eam && (len(a.Rho) != n || len(a.Fp) != n) {
		return fmt.Errorf("atom: EAM arrays %d/%d != %d", len(a.Rho), len(a.Fp), n)
	}
	return nil
}
