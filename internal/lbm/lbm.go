// Package lbm is a D3Q19 lattice-Boltzmann (BGK) stencil workload — the
// first non-MD consumer of the generic halo-exchange library. Each rank
// owns a block of the global lattice (halo.CellRange over the machine's
// rank grid) with one ghost layer per face; after the collision step the
// post-collision distributions of the boundary layers travel to the six
// face neighbors through the staged trunk exchange (three dimension rounds,
// so edge and corner ghosts arrive without diagonal messages), and the pull
// streaming step then reads only local + ghost data.
//
// The workload runs on the same virtual-time substrate as the MD engine:
// compute stages are charged through machine.CostModel, communication runs
// through halo.Engine over the uTofu or MPI transport on the simulated Tofu
// fabric, and results are bit-identical between the serial and parallel DES
// engines. The Overlap variant hides the interior collision behind the face
// exchange (non-blocking ablation); physics are bit-identical to the
// blocking variant — only the virtual-time accounting differs.
package lbm

import (
	"fmt"
	"math"

	"tofumd/internal/halo"
	"tofumd/internal/machine"
	"tofumd/internal/tofu"
	"tofumd/internal/topo"
	"tofumd/internal/units"
	"tofumd/internal/utofu"
	"tofumd/internal/vec"
)

// Q is the number of discrete velocities of the D3Q19 stencil.
const Q = 19

// dirs lists the D3Q19 velocity set: rest, the six axis directions, and
// the twelve face diagonals.
var dirs = [Q]vec.I3{
	{},
	{X: 1}, {X: -1}, {Y: 1}, {Y: -1}, {Z: 1}, {Z: -1},
	{X: 1, Y: 1}, {X: -1, Y: -1}, {X: 1, Y: -1}, {X: -1, Y: 1},
	{X: 1, Z: 1}, {X: -1, Z: -1}, {X: 1, Z: -1}, {X: -1, Z: 1},
	{Y: 1, Z: 1}, {Y: -1, Z: -1}, {Y: 1, Z: -1}, {Y: -1, Z: 1},
}

// weights are the D3Q19 quadrature weights: 1/3 rest, 1/18 axis, 1/36
// diagonal.
var weights = [Q]float64{
	1.0 / 3,
	1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18, 1.0 / 18,
	1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36,
	1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36,
	1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36,
}

// Config parameterizes a lattice-Boltzmann run.
type Config struct {
	// Cells is the global lattice extent.
	Cells vec.I3
	// Tau is the BGK relaxation time in lattice units; the kinematic
	// viscosity is nu = cs^2 (Tau - 1/2) = (Tau - 1/2)/3.
	Tau float64
	// Transport selects the communication stack.
	Transport halo.Transport
	// Overlap hides the interior collision behind the face exchange
	// (non-blocking ablation); physics are identical to blocking.
	Overlap bool
}

// Validate checks the configuration against the rank grid.
func (c Config) Validate(grid vec.I3) error {
	if c.Tau <= 0.5 {
		return fmt.Errorf("lbm: tau %v <= 1/2 (negative viscosity)", c.Tau)
	}
	for axis := 0; axis < 3; axis++ {
		if c.Cells.Comp(axis) < grid.Comp(axis) {
			return fmt.Errorf("lbm: %d cells on axis %d cannot cover %d ranks",
				c.Cells.Comp(axis), axis, grid.Comp(axis))
		}
	}
	return nil
}

// Nu returns the kinematic viscosity of the configuration in lattice units.
func (c Config) Nu() float64 { return (c.Tau - 0.5) / 3 }

// Rank is one lattice block with its virtual clock.
type Rank struct {
	ID    int
	Coord vec.I3
	// Lo and Hi are the global cell range [Lo, Hi) this rank owns.
	Lo, Hi vec.I3
	// N is the local interior extent (Hi - Lo).
	N vec.I3
	// Clock is the rank's virtual time.
	Clock float64

	// f and fpost are the ghost-extended distribution arrays, indexed
	// [q][idx(x,y,z)] with x in [0, N.X+1] (0 and N+1 are ghosts).
	f, fpost [Q][]float64

	// inboxes receive the staged face planes: [dim][0] the low ghost layer
	// (from the -dim neighbor), [dim][1] the high layer.
	inboxes [3][2]*halo.Inbox
	seq     [3][2]int

	// vcq and tni are the rank's uTofu injection resources (per-rank-slot
	// policy; nil/0 under the MPI transport).
	vcq *utofu.VCQ
	tni int
}

// idx maps ghost-extended local coordinates to the flat array index.
func (r *Rank) idx(x, y, z int) int {
	return (x*(r.N.Y+2)+y)*(r.N.Z+2) + z
}

// System is a running lattice-Boltzmann simulation over the rank grid.
type System struct {
	Cfg  Config
	Map  *topo.RankMap
	Cost machine.CostModel

	fab *tofu.Fabric
	eng *halo.Engine
	ts  transportState

	ranks []*Rank
	step  int

	// SetupTime is the virtual time spent registering buffers and creating
	// VCQs, kept out of the per-step accounting.
	SetupTime float64
}

// New builds the system over an existing rank map: the lattice is split by
// halo.CellRange, buffers are registered at their exact plane sizes, and
// every rank gets one VCQ on its node slot's TNI (the per-rank-slot
// policy; face exchange has six messages per rank, far below the TNI
// contention regime the finer policies address).
func New(m *topo.RankMap, params tofu.Params, cost machine.CostModel, cfg Config) (*System, error) {
	if err := cfg.Validate(m.Grid); err != nil {
		return nil, err
	}
	s := &System{
		Cfg:  cfg,
		Map:  m,
		Cost: cost,
		fab:  tofu.NewFabric(m, params),
	}
	s.ranks = make([]*Rank, m.Ranks())
	for id := range s.ranks {
		c := m.RankCoord(id)
		lo, hi := halo.CellRange(cfg.Cells, m.Grid, c)
		r := &Rank{ID: id, Coord: c, Lo: lo, Hi: hi, N: hi.Sub(lo)}
		n := (r.N.X + 2) * (r.N.Y + 2) * (r.N.Z + 2)
		for q := 0; q < Q; q++ {
			r.f[q] = make([]float64, n)
			r.fpost[q] = make([]float64, n)
		}
		s.ranks[id] = r
	}
	if err := s.setupTransport(params); err != nil {
		return nil, err
	}
	s.eng = s.newEngine()
	return s, nil
}

// Ranks exposes the rank slice for diagnostics and tests.
func (s *System) Ranks() []*Rank { return s.ranks }

// SetParallel runs the fabric's rounds on lps logical processes (lps <= 1:
// one LP, a serial loop). Results are bit-identical at every count.
func (s *System) SetParallel(lps int) error { return s.fab.SetParallel(lps) }

// ElapsedMax returns the slowest rank's virtual clock.
func (s *System) ElapsedMax() float64 {
	var t float64
	for _, r := range s.ranks {
		if r.Clock > t {
			t = r.Clock
		}
	}
	return t
}

// InitUniform sets every cell to the equilibrium of density rho at rest.
func (s *System) InitUniform(rho float64) {
	for _, r := range s.ranks {
		for x := 1; x <= r.N.X; x++ {
			for y := 1; y <= r.N.Y; y++ {
				for z := 1; z <= r.N.Z; z++ {
					s.setEquilibrium(r, x, y, z, rho, vec.V3{})
				}
			}
		}
	}
}

// InitShearWave sets a transverse shear wave: density 1, velocity
// u_y(x) = u0 sin(2 pi (x + 1/2) / Nx). Its amplitude decays as
// exp(-nu k^2 t), the standard lattice-Boltzmann viscosity validation.
func (s *System) InitShearWave(u0 float64) {
	k := 2 * math.Pi / float64(s.Cfg.Cells.X)
	for _, r := range s.ranks {
		for x := 1; x <= r.N.X; x++ {
			gx := float64(r.Lo.X+x-1) + 0.5
			u := vec.V3{Y: u0 * math.Sin(k*gx)}
			for y := 1; y <= r.N.Y; y++ {
				for z := 1; z <= r.N.Z; z++ {
					s.setEquilibrium(r, x, y, z, 1, u)
				}
			}
		}
	}
}

// setEquilibrium writes f_eq(rho, u) into cell (x, y, z) of rank r.
func (s *System) setEquilibrium(r *Rank, x, y, z int, rho float64, u vec.V3) {
	i := r.idx(x, y, z)
	u2 := u.Norm2()
	for q := 0; q < Q; q++ {
		eu := dirs[q].ToV3().Dot(u)
		r.f[q][i] = weights[q] * rho * (1 + 3*eu + 4.5*eu*eu - 1.5*u2)
	}
}

// Step advances the lattice one time step: collide, exchange the
// post-collision boundary planes, stream.
func (s *System) Step() {
	s.collide()
	s.exchange()
	s.stream()
	s.step++
}

// collide relaxes every interior cell toward its local equilibrium,
// writing fpost. Under the overlap variant only the boundary shell is
// charged here; the interior core's cost is overlapped with the exchange.
func (s *System) collide() {
	for _, r := range s.ranks {
		for x := 1; x <= r.N.X; x++ {
			for y := 1; y <= r.N.Y; y++ {
				for z := 1; z <= r.N.Z; z++ {
					s.collideCell(r, r.idx(x, y, z))
				}
			}
		}
		cells := r.N.Prod()
		if s.Cfg.Overlap {
			core := coreCells(r.N)
			r.Clock += s.Cost.LBMCollideTime(cells-core, machine.Pool)
		} else {
			r.Clock += s.Cost.LBMCollideTime(cells, machine.Pool)
		}
	}
}

// coreCells counts the interior cells at least one layer away from every
// face — the cells whose collision can overlap with the face exchange.
func coreCells(n vec.I3) int {
	cx, cy, cz := n.X-2, n.Y-2, n.Z-2
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	if cz < 0 {
		cz = 0
	}
	return cx * cy * cz
}

// collideCell applies the BGK relaxation to one cell.
func (s *System) collideCell(r *Rank, i int) {
	var rho float64
	var ux, uy, uz float64
	for q := 0; q < Q; q++ {
		fq := r.f[q][i]
		rho += fq
		ux += fq * float64(dirs[q].X)
		uy += fq * float64(dirs[q].Y)
		uz += fq * float64(dirs[q].Z)
	}
	inv := 1 / rho
	ux, uy, uz = ux*inv, uy*inv, uz*inv
	u2 := ux*ux + uy*uy + uz*uz
	invTau := 1 / s.Cfg.Tau
	for q := 0; q < Q; q++ {
		eu := float64(dirs[q].X)*ux + float64(dirs[q].Y)*uy + float64(dirs[q].Z)*uz
		feq := weights[q] * rho * (1 + 3*eu + 4.5*eu*eu - 1.5*u2)
		r.fpost[q][i] = r.f[q][i] + (feq-r.f[q][i])*invTau
	}
}

// stream performs the pull streaming: every interior cell reads the
// post-collision value from its upwind neighbor (ghosts included) into f.
func (s *System) stream() {
	for _, r := range s.ranks {
		for q := 0; q < Q; q++ {
			e := dirs[q]
			src := r.fpost[q]
			dst := r.f[q]
			for x := 1; x <= r.N.X; x++ {
				for y := 1; y <= r.N.Y; y++ {
					for z := 1; z <= r.N.Z; z++ {
						dst[r.idx(x, y, z)] = src[r.idx(x-e.X, y-e.Y, z-e.Z)]
					}
				}
			}
		}
		r.Clock += s.Cost.LBMStreamTime(r.N.Prod(), machine.Pool)
	}
}

// Mass returns the global mass (sum of all distributions), an invariant of
// the collide-stream update.
func (s *System) Mass() float64 {
	var m float64
	for _, r := range s.ranks {
		for q := 0; q < Q; q++ {
			for x := 1; x <= r.N.X; x++ {
				for y := 1; y <= r.N.Y; y++ {
					for z := 1; z <= r.N.Z; z++ {
						m += r.f[q][r.idx(x, y, z)]
					}
				}
			}
		}
	}
	return m
}

// Momentum returns the global momentum, also conserved by the periodic
// lattice.
func (s *System) Momentum() vec.V3 {
	var p vec.V3
	for _, r := range s.ranks {
		for q := 0; q < Q; q++ {
			e := dirs[q].ToV3()
			var sum float64
			for x := 1; x <= r.N.X; x++ {
				for y := 1; y <= r.N.Y; y++ {
					for z := 1; z <= r.N.Z; z++ {
						sum += r.f[q][r.idx(x, y, z)]
					}
				}
			}
			p = p.Add(e.Scale(sum))
		}
	}
	return p
}

// ShearAmplitude projects the y-velocity field onto the initial shear mode
// sin(2 pi (x + 1/2) / Nx) and returns the modal amplitude — the quantity
// that decays as exp(-nu k^2 t).
func (s *System) ShearAmplitude() float64 {
	k := 2 * math.Pi / float64(s.Cfg.Cells.X)
	var proj float64
	for _, r := range s.ranks {
		for x := 1; x <= r.N.X; x++ {
			gx := float64(r.Lo.X+x-1) + 0.5
			sx := math.Sin(k * gx)
			for y := 1; y <= r.N.Y; y++ {
				for z := 1; z <= r.N.Z; z++ {
					i := r.idx(x, y, z)
					var rho, py float64
					for q := 0; q < Q; q++ {
						rho += r.f[q][i]
						py += r.f[q][i] * float64(dirs[q].Y)
					}
					proj += (py / rho) * sx
				}
			}
		}
	}
	return 2 * proj / float64(s.Cfg.Cells.Prod())
}

// Fingerprint folds every interior distribution value into a hash for
// bit-identity checks across transports, DES engines and overlap modes.
func (s *System) Fingerprint() uint64 {
	var h uint64
	for _, r := range s.ranks {
		for q := 0; q < Q; q++ {
			for x := 1; x <= r.N.X; x++ {
				for y := 1; y <= r.N.Y; y++ {
					for z := 1; z <= r.N.Z; z++ {
						h = h*1099511628211 ^ math.Float64bits(r.f[q][r.idx(x, y, z)])
					}
				}
			}
		}
	}
	return h
}

// PackTimeBytes exposes the pack cost model for the exchange layer.
func (s *System) packCost(bytes int) float64 {
	return s.Cost.PackTime(units.Bytes(bytes), machine.Pool)
}

func (s *System) unpackCost(bytes int) float64 {
	return s.Cost.UnpackTime(units.Bytes(bytes), machine.Pool)
}
