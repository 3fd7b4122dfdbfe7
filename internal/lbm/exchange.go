package lbm

import (
	"tofumd/internal/halo"
	"tofumd/internal/machine"
	"tofumd/internal/mpi"
	"tofumd/internal/tofu"
	"tofumd/internal/utofu"
	"tofumd/internal/vec"
)

// transport state attached to System by setupTransport.
type transportState struct {
	uts *utofu.System
	mpi *mpi.Comm
}

// planeRange returns the inclusive ghost-extended index ranges of the two
// non-exchange axes of a dim-d face plane. The staged exchange widens the
// plane as rounds progress: x planes cover the interior, y planes include
// the x ghosts received in round 0, z planes include both — so edge and
// corner ghosts arrive without diagonal messages (the trunk-forwarding
// property of the 3-stage pattern).
func planeRange(dim int, n [3]int) (aLo, aHi, bLo, bHi int) {
	switch dim {
	case 0:
		return 1, n[1], 1, n[2]
	case 1:
		return 0, n[0] + 1, 1, n[2]
	default:
		return 0, n[0] + 1, 0, n[1] + 1
	}
}

// planeBytes is the wire size of one dim-d face plane of rank r.
func (r *Rank) planeBytes(dim int) int {
	n := [3]int{r.N.X, r.N.Y, r.N.Z}
	aLo, aHi, bLo, bHi := planeRange(dim, n)
	return (aHi - aLo + 1) * (bHi - bLo + 1) * Q * halo.F64Bytes
}

// cellAt maps (layer on the exchange axis, a, b on the other two axes) to
// the flat index, with axes in x<y<z order.
func (r *Rank) cellAt(dim, layer, a, b int) int {
	switch dim {
	case 0:
		return r.idx(layer, a, b)
	case 1:
		return r.idx(a, layer, b)
	default:
		return r.idx(a, b, layer)
	}
}

// packPlane serializes the fpost plane at the given layer of the exchange
// axis into dst.
func (r *Rank) packPlane(dim, layer int, dst []byte) []byte {
	n := [3]int{r.N.X, r.N.Y, r.N.Z}
	aLo, aHi, bLo, bHi := planeRange(dim, n)
	dst = halo.Grow(dst, r.planeBytes(dim))
	o := 0
	for a := aLo; a <= aHi; a++ {
		for b := bLo; b <= bHi; b++ {
			i := r.cellAt(dim, layer, a, b)
			for q := 0; q < Q; q++ {
				halo.PutF64(dst[o:], r.fpost[q][i])
				o += halo.F64Bytes
			}
		}
	}
	return dst[:o]
}

// unpackPlane deserializes a received plane into the fpost ghost layer.
func (r *Rank) unpackPlane(dim, layer int, src []byte) {
	n := [3]int{r.N.X, r.N.Y, r.N.Z}
	aLo, aHi, bLo, bHi := planeRange(dim, n)
	o := 0
	for a := aLo; a <= aHi; a++ {
		for b := bLo; b <= bHi; b++ {
			i := r.cellAt(dim, layer, a, b)
			for q := 0; q < Q; q++ {
				r.fpost[q][i] = halo.GetF64(src[o:])
				o += halo.F64Bytes
			}
		}
	}
}

// setupTransport creates the per-rank VCQs (one per rank on its node
// slot's TNI) and pre-registers the six face inboxes at their exact plane
// sizes. Registration and VCQ costs accrue to SetupTime.
func (s *System) setupTransport(params tofu.Params) error {
	s.ts.uts = utofu.NewSystem(s.fab)
	s.ts.mpi = mpi.NewComm(s.fab)
	if s.Cfg.Transport != halo.TransportUTofu {
		return nil
	}
	for _, r := range s.ranks {
		_, slot := s.Map.NodeOf(r.ID)
		r.tni = slot % params.TNIsPerNode
		vcq, err := s.ts.uts.CreateVCQ(r.ID, r.tni)
		if err != nil {
			return err
		}
		r.vcq = vcq
		for dim := 0; dim < 3; dim++ {
			for side := 0; side < 2; side++ {
				ib := &halo.Inbox{}
				s.SetupTime += ib.Preregister(s.ts.uts, r.ID, r.planeBytes(dim))
				r.inboxes[dim][side] = ib
			}
		}
	}
	return nil
}

// newEngine wires the generic halo engine to the lattice ranks' clocks.
// The lattice workload has no fault-handling state, so the degradation
// hooks stay nil; a retransmit-exhausted put still falls back to MPI
// through the engine's built-in path.
func (s *System) newEngine() *halo.Engine {
	return &halo.Engine{
		Fab:   s.fab,
		UTS:   s.ts.uts,
		MPI:   s.ts.mpi,
		VCQ:   func(rank, tni int) *utofu.VCQ { return s.ranks[rank].vcq },
		Clock: func(rank int) float64 { return s.ranks[rank].Clock },
		Advance: func(rank int, t float64) {
			if r := s.ranks[rank]; t > r.Clock {
				r.Clock = t
			}
		},
	}
}

// lmsg tracks one in-flight plane message of a dimension round.
type lmsg struct {
	hm       *halo.Msg
	dst      *Rank
	dim      int
	ghost    int // receiver ghost layer the payload lands in
	wireCost int // payload bytes, for the unpack charge
}

// exchange runs the three staged dimension rounds over the post-collision
// boundary planes. Under the overlap variant the interior core's collision
// cost is folded in afterwards: each rank's clock becomes at least
// (exchange start + core collide time), so communication time under the
// compute envelope is hidden.
func (s *System) exchange() {
	var commStart []float64
	if s.Cfg.Overlap {
		commStart = make([]float64, len(s.ranks))
		for i, r := range s.ranks {
			commStart[i] = r.Clock
		}
	}
	for dim := 0; dim < 3; dim++ {
		s.exchangeDim(dim)
	}
	if s.Cfg.Overlap {
		for i, r := range s.ranks {
			if t := commStart[i] + s.Cost.LBMCollideTime(coreCells(r.N), machine.Pool); t > r.Clock {
				r.Clock = t
			}
		}
	}
}

// exchangeDim runs one dimension round: every rank ships its two boundary
// planes to its -dim and +dim neighbors (or copies them locally when the
// grid is one rank wide on the axis).
func (s *System) exchangeDim(dim int) {
	var msgs []lmsg
	for _, r := range s.ranks {
		for _, sign := range []int{-1, 1} {
			dir := vec.I3{}.SetComp(dim, sign)
			dst := s.ranks[s.Map.NeighborRank(r.ID, dir)]
			// The sender's boundary layer and the ghost layer it fills on
			// the receiver: +dim sends the top interior layer into the
			// receiver's low ghost, -dim the bottom layer into the high one.
			var layer, ghost, side int
			if sign > 0 {
				layer, ghost, side = r.N.Comp(dim), 0, 0
			} else {
				layer, ghost, side = 1, dst.N.Comp(dim)+1, 1
			}
			data := r.packPlane(dim, layer, nil)
			r.Clock += s.packCost(len(data))
			if dst == r {
				// Periodic self-image on a one-rank axis: local copy.
				r.unpackPlane(dim, ghost, data)
				r.Clock += s.unpackCost(len(data))
				continue
			}
			hm := &halo.Msg{
				Src: r.ID, Dst: dst.ID, TNI: r.tni,
				Data: data, Known: true, ReadyAt: r.Clock,
			}
			if s.Cfg.Transport == halo.TransportUTofu {
				ib := dst.inboxes[dim][side]
				hm.Region = ib.Regions[dst.seq[dim][side]%4]
				dst.seq[dim][side]++
			}
			msgs = append(msgs, lmsg{hm: hm, dst: dst, dim: dim, ghost: ghost, wireCost: len(data)})
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
		m.dst.unpackPlane(m.dim, m.ghost, m.hm.Data)
		m.dst.Clock += s.unpackCost(m.wireCost)
	}
}
