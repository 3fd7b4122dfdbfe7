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
// fabric. The three dimension rounds are aimed once, at New, and every step
// unpacks beside each round's timing. The Overlap variant hides the interior collision behind the face
// exchange (non-blocking ablation); physics are bit-identical to the
// blocking variant — only the virtual-time accounting differs.
package lbm

import (
	"fmt"
	"math"

	"tofumd/internal/halo"
	"tofumd/internal/machine"
	"tofumd/internal/threadpool"
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

	// selfBuf is the staging buffer of a periodic self-image copy,
	// allocated only on ranks that have one.
	selfBuf []byte

	// vcq is the rank's uTofu injection queue (nil under the MPI transport).
	vcq *utofu.VCQ
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

	fab  *tofu.Fabric
	eng  *halo.Engine
	ts   transportState
	pool *threadpool.Pool

	// plan is the face exchange: one 3-stage shell, whose Send links give
	// each rank's receivers and issue order.
	plan *halo.Plan

	ranks []*Rank
	step  int

	// rounds are the three dimension rounds of the face exchange, aimed
	// once (aimRounds) with their pack and unpack tasks and replayed every
	// step.
	rounds         [3]*halo.Round
	packs, unpacks [3]func(id int)
	// commStart holds each rank's clock at the start of an overlapped
	// exchange, scratch reused every step.
	commStart []float64

	// SetupTime is the virtual time spent registering buffers and creating
	// VCQs, kept out of the per-step accounting.
	SetupTime float64
}

// New builds the system over an existing rank map: the lattice is split by
// halo.CellRange, the face exchange is a one-shell 3-stage halo.Plan,
// buffers are registered at their exact plane sizes, every rank gets one
// VCQ on the TNI the plan's per-rank-slot assignment gives its links (face
// exchange has six messages per rank, far below the TNI contention regime
// the finer policies address), and the three dimension rounds are aimed.
func New(m *topo.RankMap, params tofu.Params, cost machine.CostModel, cfg Config) (*System, error) {
	if err := cfg.Validate(m.Grid); err != nil {
		return nil, err
	}
	s := &System{
		Cfg:  cfg,
		Map:  m,
		Cost: cost,
		fab:  tofu.NewFabric(m, params),
		plan: halo.NewPlan(m, halo.ThreeStage, 1, nil),
		pool: threadpool.New(0),
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
	if cfg.Overlap {
		s.commStart = make([]float64, len(s.ranks))
	}
	if err := s.setupTransport(params); err != nil {
		return nil, err
	}
	s.eng = s.newEngine()
	s.aimRounds()
	return s, nil
}

// Ranks exposes the rank slice for diagnostics and tests.
func (s *System) Ranks() []*Rank { return s.ranks }

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
			r.setLayerEquilibrium(x, rho, vec.V3{})
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
			r.setLayerEquilibrium(x, 1, vec.V3{Y: u0 * math.Sin(k*gx)})
		}
	}
}

// setLayerEquilibrium writes f_eq(rho, u) into every interior cell of
// x-layer x of rank r. The state is uniform over the layer, so each of the
// Q values is evaluated once and fills the layer's z-rows.
func (r *Rank) setLayerEquilibrium(x int, rho float64, u vec.V3) {
	u2 := u.Norm2()
	for q := 0; q < Q; q++ {
		eu := dirs[q].ToV3().Dot(u)
		feq := weights[q] * rho * (1 + 3*eu + 4.5*eu*eu - 1.5*u2)
		for y := 1; y <= r.N.Y; y++ {
			row := r.f[q][r.idx(x, y, 1):][:r.N.Z]
			for i := range row {
				row[i] = feq
			}
		}
	}
}

// Step advances the lattice one time step: collide, exchange the
// post-collision boundary planes, stream. Collide, stream and the pack and
// unpack halves of every dimension round run the ranks in parallel on the
// system's pool; each task touches only its own rank and no task touches a
// clock another rank's task reads, so the result is bit-identical at every
// worker count.
func (s *System) Step() {
	s.collide()
	s.exchange()
	s.stream()
	s.step++
}

// forRanks runs fn once for every rank id on the system's pool and returns
// when all calls have. fn must touch only the state of the rank it is
// given: the calls of one region run concurrently.
func (s *System) forRanks(fn func(id int)) {
	s.pool.ForEach(len(s.ranks), fn)
}

// collide relaxes every interior cell toward its local equilibrium,
// writing fpost. Under the overlap variant only the boundary shell is
// charged here; the interior core's cost is overlapped with the exchange.
func (s *System) collide() {
	invTau := 1 / s.Cfg.Tau
	s.forRanks(func(id int) {
		r := s.ranks[id]
		for x := 1; x <= r.N.X; x++ {
			for y := 1; y <= r.N.Y; y++ {
				collideRow(&r.f, &r.fpost, r.idx(x, y, 1), r.N.Z, invTau)
			}
		}
		cells := r.N.Prod()
		if s.Cfg.Overlap {
			core := coreCells(r.N)
			r.Clock += s.Cost.LBMCollideTime(cells-core, machine.Pool)
		} else {
			r.Clock += s.Cost.LBMCollideTime(cells, machine.Pool)
		}
	})
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

// collideRow applies the BGK relaxation to the n cells [i, i+n) of one
// z-row, with the 19 directions written out. It is the loop over dirs
// unrolled, bit for bit: the moment sums add the same terms in q order
// less those whose coefficient is 0, and eu is the dot product in
// ±ux±uy form, which is exact (x·1 = x, x·(−1) = −x, x + (−y) = x − y). A
// dropped ±0 term can change only the sign of an exact zero, and a zero
// eu enters feq only through 1+3·eu and eu² (relax), where its sign is
// lost. rho keeps the loop's leading 0, the one place a zero's sign would
// survive (as the sign of 1/rho).
func collideRow(f, fpost *[Q][]float64, i, n int, invTau float64) {
	j := i + n
	f0, f1, f2, f3, f4, f5, f6 := f[0][i:j], f[1][i:j], f[2][i:j], f[3][i:j], f[4][i:j], f[5][i:j], f[6][i:j]
	f7, f8, f9, f10, f11, f12 := f[7][i:j], f[8][i:j], f[9][i:j], f[10][i:j], f[11][i:j], f[12][i:j]
	f13, f14, f15, f16, f17, f18 := f[13][i:j], f[14][i:j], f[15][i:j], f[16][i:j], f[17][i:j], f[18][i:j]
	for z := range f0 {
		v0, v1, v2, v3, v4, v5, v6 := f0[z], f1[z], f2[z], f3[z], f4[z], f5[z], f6[z]
		v7, v8, v9, v10, v11, v12 := f7[z], f8[z], f9[z], f10[z], f11[z], f12[z]
		v13, v14, v15, v16, v17, v18 := f13[z], f14[z], f15[z], f16[z], f17[z], f18[z]
		rho := 0 + v0 + v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8 + v9 + v10 + v11 + v12 + v13 + v14 + v15 + v16 + v17 + v18
		ux := v1 - v2 + v7 - v8 + v9 - v10 + v11 - v12 + v13 - v14
		uy := v3 - v4 + v7 - v8 - v9 + v10 + v15 - v16 + v17 - v18
		uz := v5 - v6 + v11 - v12 - v13 + v14 + v15 - v16 - v17 + v18
		inv := 1 / rho
		ux, uy, uz = ux*inv, uy*inv, uz*inv
		u15 := 1.5 * (ux*ux + uy*uy + uz*uz)
		w0, w1, w2 := weights[0]*rho, weights[1]*rho, weights[7]*rho
		fpost[0][i+z] = relax(v0, w0, 0, u15, invTau)
		fpost[1][i+z] = relax(v1, w1, ux, u15, invTau)
		fpost[2][i+z] = relax(v2, w1, -ux, u15, invTau)
		fpost[3][i+z] = relax(v3, w1, uy, u15, invTau)
		fpost[4][i+z] = relax(v4, w1, -uy, u15, invTau)
		fpost[5][i+z] = relax(v5, w1, uz, u15, invTau)
		fpost[6][i+z] = relax(v6, w1, -uz, u15, invTau)
		fpost[7][i+z] = relax(v7, w2, ux+uy, u15, invTau)
		fpost[8][i+z] = relax(v8, w2, -ux-uy, u15, invTau)
		fpost[9][i+z] = relax(v9, w2, ux-uy, u15, invTau)
		fpost[10][i+z] = relax(v10, w2, -ux+uy, u15, invTau)
		fpost[11][i+z] = relax(v11, w2, ux+uz, u15, invTau)
		fpost[12][i+z] = relax(v12, w2, -ux-uz, u15, invTau)
		fpost[13][i+z] = relax(v13, w2, ux-uz, u15, invTau)
		fpost[14][i+z] = relax(v14, w2, -ux+uz, u15, invTau)
		fpost[15][i+z] = relax(v15, w2, uy+uz, u15, invTau)
		fpost[16][i+z] = relax(v16, w2, -uy-uz, u15, invTau)
		fpost[17][i+z] = relax(v17, w2, uy-uz, u15, invTau)
		fpost[18][i+z] = relax(v18, w2, -uy+uz, u15, invTau)
	}
}

// relax returns the post-collision value of a distribution v with
// weighted density wRho, velocity projection eu and 1.5·u² = u15.
func relax(v, wRho, eu, u15, invTau float64) float64 {
	feq := wRho * (1 + 3*eu + 4.5*eu*eu - u15)
	return v + (feq-v)*invTau
}

// stream performs the pull streaming: every interior cell reads the
// post-collision value from its upwind neighbor (ghosts included) into f,
// one copy per (q, x, y) z-row.
func (s *System) stream() {
	s.forRanks(func(id int) {
		r := s.ranks[id]
		for q := 0; q < Q; q++ {
			e := dirs[q]
			src := r.fpost[q]
			dst := r.f[q]
			for x := 1; x <= r.N.X; x++ {
				for y := 1; y <= r.N.Y; y++ {
					i, k := r.idx(x, y, 1), r.idx(x-e.X, y-e.Y, 1-e.Z)
					copy(dst[i:i+r.N.Z], src[k:k+r.N.Z])
				}
			}
		}
		r.Clock += s.Cost.LBMStreamTime(r.N.Prod(), machine.Pool)
	})
}

// Mass returns the global mass (sum of all distributions), an invariant of
// the collide-stream update.
func (s *System) Mass() float64 {
	var m float64
	for _, r := range s.ranks {
		for q := 0; q < Q; q++ {
			for x := 1; x <= r.N.X; x++ {
				for y := 1; y <= r.N.Y; y++ {
					for _, v := range r.f[q][r.idx(x, y, 1):][:r.N.Z] {
						m += v
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

// packCost is the virtual time of packing a plane of the given wire size.
func (s *System) packCost(bytes int) float64 {
	return s.Cost.PackTime(units.Bytes(bytes), machine.Pool)
}

// unpackCost is the virtual time of unpacking a plane of the given wire
// size into a ghost layer.
func (s *System) unpackCost(bytes int) float64 {
	return s.Cost.UnpackTime(units.Bytes(bytes), machine.Pool)
}
