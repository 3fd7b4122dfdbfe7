package lbm

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"

	"tofumd/internal/halo"
	"tofumd/internal/machine"
	"tofumd/internal/tofu"
	"tofumd/internal/vec"
)

// The reference step below is a verbatim copy of the plain serial kernels
// System.Step replaced: a loop over dirs per cell, an idx pair per streamed
// element, and a (a, b, q) element walk in the plane codec, one rank after
// another. TestStepMatchesReference holds the parallel, unrolled, row-wise
// step to it bit for bit. The reference plane codec writes each word
// little-endian, the layout halo's TestCodecMatchesLittleEndian holds the
// F64s view to.

func refStep(s *System) {
	for _, r := range s.ranks {
		for x := 1; x <= r.N.X; x++ {
			for y := 1; y <= r.N.Y; y++ {
				for z := 1; z <= r.N.Z; z++ {
					refCollideCell(s, r, r.idx(x, y, z))
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
	var commStart []float64
	if s.Cfg.Overlap {
		commStart = make([]float64, len(s.ranks))
		for i, r := range s.ranks {
			commStart[i] = r.Clock
		}
	}
	for dim := 0; dim < 3; dim++ {
		refExchangeDim(s, dim)
	}
	if s.Cfg.Overlap {
		for i, r := range s.ranks {
			if t := commStart[i] + s.Cost.LBMCollideTime(coreCells(r.N), machine.Pool); t > r.Clock {
				r.Clock = t
			}
		}
	}
	refStream(s)
	s.step++
}

func refCollideCell(s *System, r *Rank, i int) {
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

func refStream(s *System) {
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

func refPackPlane(r *Rank, dim, layer int, dst []byte) []byte {
	n := [3]int{r.N.X, r.N.Y, r.N.Z}
	aLo, aHi, bLo, bHi := planeRange(dim, n)
	dst = halo.Grow(dst, r.planeBytes(dim))
	o := 0
	for a := aLo; a <= aHi; a++ {
		for b := bLo; b <= bHi; b++ {
			i := r.cellAt(dim, layer, a, b)
			for q := 0; q < Q; q++ {
				binary.LittleEndian.PutUint64(dst[o:], math.Float64bits(r.fpost[q][i]))
				o += halo.F64Bytes
			}
		}
	}
	return dst[:o]
}

func refUnpackPlane(r *Rank, dim, layer int, src []byte) {
	n := [3]int{r.N.X, r.N.Y, r.N.Z}
	aLo, aHi, bLo, bHi := planeRange(dim, n)
	o := 0
	for a := aLo; a <= aHi; a++ {
		for b := bLo; b <= bHi; b++ {
			i := r.cellAt(dim, layer, a, b)
			for q := 0; q < Q; q++ {
				r.fpost[q][i] = math.Float64frombits(binary.LittleEndian.Uint64(src[o:]))
				o += halo.F64Bytes
			}
		}
	}
}

// refTNI is the TNI a rank sends on: its node slot's, modulo the TNIs per
// node (the per-rank-slot policy), and 0 under MPI.
func refTNI(s *System, r *Rank) int {
	if s.Cfg.Transport != halo.TransportUTofu {
		return 0
	}
	_, slot := s.Map.NodeOf(r.ID)
	return slot % s.fab.Params.TNIsPerNode
}

type refMsg struct {
	hm       *halo.Msg
	dst      *Rank
	dim      int
	ghost    int
	wireCost int
}

func refExchangeDim(s *System, dim int) {
	var msgs []refMsg
	for _, r := range s.ranks {
		for _, sign := range []int{-1, 1} {
			dir := vec.I3{}.SetComp(dim, sign)
			dst := s.ranks[s.Map.NeighborRank(r.ID, dir)]
			var layer, ghost, side int
			if sign > 0 {
				layer, ghost, side = r.N.Comp(dim), 0, 0
			} else {
				layer, ghost, side = 1, dst.N.Comp(dim)+1, 1
			}
			data := refPackPlane(r, dim, layer, nil)
			r.Clock += s.packCost(len(data))
			if dst == r {
				refUnpackPlane(r, dim, ghost, data)
				r.Clock += s.unpackCost(len(data))
				continue
			}
			hm := &halo.Msg{
				Src: r.ID, Dst: dst.ID, VCQ: r.vcq,
				Data: data, Known: true, ReadyAt: r.Clock,
			}
			if s.Cfg.Transport == halo.TransportUTofu {
				hm.Region = dst.inboxes[dim][side].Region
			}
			msgs = append(msgs, refMsg{hm: hm, dst: dst, dim: dim, ghost: ghost, wireCost: len(data)})
		}
	}
	if len(msgs) == 0 {
		return
	}
	hms := make([]*halo.Msg, len(msgs))
	for i := range msgs {
		hms[i] = msgs[i].hm
	}
	s.eng.RunRound(s.Cfg.Transport, hms)
	for i := range msgs {
		m := &msgs[i]
		refUnpackPlane(m.dst, m.dim, m.ghost, m.hm.Data)
		m.dst.Clock += s.unpackCost(m.wireCost)
	}
}

// perturb scatters seeded noise over every interior distribution and sets
// about one value in thirty to an exact 0, a -0 or a small negative
// number, so the unrolled collide sees the signed zeros and negative terms
// its exactness argument is about.
func perturb(s *System, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0))
	for _, r := range s.ranks {
		for q := 0; q < Q; q++ {
			for x := 1; x <= r.N.X; x++ {
				for y := 1; y <= r.N.Y; y++ {
					for z := 1; z <= r.N.Z; z++ {
						i := r.idx(x, y, z)
						switch rng.IntN(90) {
						case 0:
							r.f[q][i] = 0
						case 1:
							r.f[q][i] = math.Copysign(0, -1)
						case 2:
							r.f[q][i] = -1e-3 * rng.Float64()
						default:
							r.f[q][i] += 1e-3 * (rng.Float64() - 0.5)
						}
					}
				}
			}
		}
	}
}

// sameState reports the first difference between two systems' distribution
// arrays (ghosts included) and clocks, compared bit for bit.
func sameState(t *testing.T, step int, got, want *System) {
	t.Helper()
	for id, r := range got.ranks {
		w := want.ranks[id]
		if math.Float64bits(r.Clock) != math.Float64bits(w.Clock) {
			t.Fatalf("step %d rank %d: clock %.17g, reference %.17g", step, id, r.Clock, w.Clock)
		}
		for q := 0; q < Q; q++ {
			for i := range r.f[q] {
				if math.Float64bits(r.f[q][i]) != math.Float64bits(w.f[q][i]) {
					t.Fatalf("step %d rank %d: f[%d][%d] = %v, reference %v", step, id, q, i, r.f[q][i], w.f[q][i])
				}
				if math.Float64bits(r.fpost[q][i]) != math.Float64bits(w.fpost[q][i]) {
					t.Fatalf("step %d rank %d: fpost[%d][%d] = %v, reference %v", step, id, q, i, r.fpost[q][i], w.fpost[q][i])
				}
			}
		}
		for dim := 0; dim < 3; dim++ {
			for _, layer := range []int{1, r.N.Comp(dim)} {
				if !bytes.Equal(r.packPlane(dim, layer, nil), refPackPlane(r, dim, layer, nil)) {
					t.Fatalf("step %d rank %d: dim %d layer %d plane differs from the reference codec", step, id, dim, layer)
				}
			}
		}
	}
}

// TestStepMatchesReference holds System.Step bit for bit to the plain
// serial step above, after every step: every f and fpost value, ghosts
// included, every clock and the packed planes,
// and each rank's VCQ to the reference's TNI. It covers both transports,
// the overlap variant, a self-image tile, an uneven split of the lattice and
// perturbed states with signed zeros and negative distributions. Run it at
// several -cpu values: New sizes the system's pool to GOMAXPROCS.
func TestStepMatchesReference(t *testing.T) {
	cases := []struct {
		name    string
		nodes   vec.I3
		cfg     Config
		perturb bool
	}{
		{"utofu", vec.I3{X: 2, Y: 2, Z: 2}, Config{Cells: vec.I3{X: 16, Y: 16, Z: 16}, Transport: halo.TransportUTofu}, false},
		{"utofu-overlap", vec.I3{X: 2, Y: 2, Z: 2}, Config{Cells: vec.I3{X: 16, Y: 16, Z: 16}, Transport: halo.TransportUTofu, Overlap: true}, false},
		{"mpi", vec.I3{X: 2, Y: 2, Z: 2}, Config{Cells: vec.I3{X: 16, Y: 16, Z: 16}, Transport: halo.TransportMPI}, false},
		{"self-image", vec.I3{X: 1, Y: 1, Z: 1}, Config{Cells: vec.I3{X: 8, Y: 8, Z: 8}, Transport: halo.TransportUTofu}, true},
		{"uneven", vec.I3{X: 2, Y: 2, Z: 2}, Config{Cells: vec.I3{X: 18, Y: 14, Z: 10}, Transport: halo.TransportUTofu}, false},
		{"uneven-perturbed", vec.I3{X: 2, Y: 2, Z: 2}, Config{Cells: vec.I3{X: 18, Y: 14, Z: 10}, Transport: halo.TransportMPI, Overlap: true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Tau = 0.8
			build := func() *System {
				s, err := New(testMap(t, tc.nodes), tofu.DefaultParams(), machine.DefaultCostModel(), tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.InitShearWave(0.01)
				if tc.perturb {
					perturb(s, 7)
				}
				return s
			}
			got, want := build(), build()
			for _, r := range got.ranks {
				if r.vcq != nil && r.vcq.TNI != refTNI(want, r) {
					t.Fatalf("rank %d: VCQ on TNI %d, reference %d", r.ID, r.vcq.TNI, refTNI(want, r))
				}
			}
			sameState(t, 0, got, want)
			for step := 1; step <= 5; step++ {
				got.Step()
				refStep(want)
				sameState(t, step, got, want)
			}
		})
	}
}

// TestStepAllocs pins what one step allocates under uTofu. Every non-self
// plane is packed straight into the receiver's pre-registered inbox, so no
// payload is allocated at all; what is left is the parallel regions'
// bookkeeping, and that is the whole bound. Collide and stream pass a
// fresh task closure to the pool. The pack region and the unpack region
// beside the fabric round of every dimension round that has messages run
// tasks bound once at New, and the round's closure and the settle pass run
// on the caller, on the stack. With helpers a region adds its shared state
// (counter, WaitGroup) and the helpers' work method value. The pool's
// worker count is fixed at New, so AllocsPerRun's GOMAXPROCS 1 does not
// change it: at -cpu 2 and 4 a 2x2x2 tile reads 2×3 + 6×2 = 18 a step and
// the self-image tile 2×3 + 5×2 = 16 (2 each at -cpu 1), where allocating
// every task closure took 24 and allocating each plane 208. Self-image
// planes reuse their rank's staging buffer; the rounds are aimed at New and
// the engine's records are scratch.
func TestStepAllocs(t *testing.T) {
	const closureAllocs, boundAllocs = 3, 2
	for _, tc := range []struct {
		name  string
		nodes vec.I3
		cells vec.I3
	}{
		{"2x2x2", vec.I3{X: 2, Y: 2, Z: 2}, vec.I3{X: 16, Y: 16, Z: 16}},
		{"self-image", vec.I3{X: 1, Y: 1, Z: 1}, vec.I3{X: 8, Y: 8, Z: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Cells: tc.cells, Tau: 0.8, Transport: halo.TransportUTofu}
			s, err := New(testMap(t, tc.nodes), tofu.DefaultParams(), machine.DefaultCostModel(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.InitShearWave(0.01)
			regions := 0 // the exchange's
			for dim := 0; dim < 3; dim++ {
				regions++ // pack
				if s.Map.Grid.Comp(dim) > 1 {
					regions++ // unpack
				}
			}
			want := 2*closureAllocs + regions*boundAllocs
			if avg := testing.AllocsPerRun(5, s.Step); avg > float64(want) {
				t.Errorf("a step allocates %.0f times, want at most %d (%d exchange regions)", avg, want, regions)
			}
		})
	}
}
