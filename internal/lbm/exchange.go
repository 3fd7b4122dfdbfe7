package lbm

import (
	"tofumd/internal/halo"
	"tofumd/internal/machine"
	"tofumd/internal/mpi"
	"tofumd/internal/tofu"
	"tofumd/internal/utofu"
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

// bStride is the flat-index step of the b axis of a dim-d plane: b is z
// on the x and y planes, y on the z planes.
func (r *Rank) bStride(dim int) int {
	if dim == 2 {
		return r.N.Z + 2
	}
	return 1
}

// packPlane serializes the fpost plane at the given layer of the exchange
// axis into dst. The wire layout is (a, b, q), q fastest; it is written
// one a-row at a time through the row's float64 view, q outer and b inner,
// so each source walk is a constant-stride run through one distribution
// array.
func (r *Rank) packPlane(dim, layer int, dst []byte) []byte {
	n := [3]int{r.N.X, r.N.Y, r.N.Z}
	aLo, aHi, bLo, bHi := planeRange(dim, n)
	dst = halo.Grow(dst, r.planeBytes(dim))
	nb, stride := bHi-bLo+1, r.bStride(dim)
	const cell = Q * halo.F64Bytes
	for a := aLo; a <= aHi; a++ {
		row := halo.F64s(dst[(a-aLo)*nb*cell:][:nb*cell])
		i0 := r.cellAt(dim, layer, a, bLo)
		for q, src := range &r.fpost {
			for o, i := q, i0; o < len(row); o, i = o+Q, i+stride {
				row[o] = src[i]
			}
		}
	}
	return dst
}

// unpackPlane deserializes a received plane into the fpost ghost layer,
// row by row in packPlane's order.
func (r *Rank) unpackPlane(dim, layer int, src []byte) {
	n := [3]int{r.N.X, r.N.Y, r.N.Z}
	aLo, aHi, bLo, bHi := planeRange(dim, n)
	nb, stride := bHi-bLo+1, r.bStride(dim)
	const cell = Q * halo.F64Bytes
	for a := aLo; a <= aHi; a++ {
		row := halo.F64s(src[(a-aLo)*nb*cell:][:nb*cell])
		i0 := r.cellAt(dim, layer, a, bLo)
		for q, dst := range &r.fpost {
			for o, i := q, i0; o < len(row); o, i = o+Q, i+stride {
				dst[i] = row[o]
			}
		}
	}
}

// setupTransport binds every rank's one VCQ to the TNI the plan assigns its
// send links (per-rank-slot over all TNIs) and pre-registers the six face
// inboxes at their exact plane sizes. Registration and VCQ costs accrue to
// SetupTime. The MPI transport needs neither.
func (s *System) setupTransport(params tofu.Params) error {
	s.ts.uts = utofu.NewSystem(s.fab)
	s.ts.mpi = mpi.NewComm(s.fab)
	if s.Cfg.Transport != halo.TransportUTofu {
		return nil
	}
	fwd, _ := s.plan.Assign(halo.TNIPerRankSlot, halo.SurvivingTNIs(params.TNIsPerNode, nil), 1, halo.Balance{})
	for _, r := range s.ranks {
		vcq, err := s.ts.uts.CreateVCQ(r.ID, int(fwd[s.plan.Send[r.ID][0]].TNI))
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
// The lattice workload has no fault-handling state, so the Fallback and
// Health trackers stay nil; a retransmit-exhausted put still falls back to
// MPI and lands in its inbox through the engine's built-in path.
func (s *System) newEngine() *halo.Engine {
	return &halo.Engine{
		Fab:   s.fab,
		UTS:   s.ts.uts,
		MPI:   s.ts.mpi,
		Clock: func(rank int) *float64 { return &s.ranks[rank].Clock },
	}
}

// face locates the plane that link l of dimension round dim carries from
// r to dst: r's boundary layer, the ghost layer it fills on dst, and the
// side of dst's inbox it lands in. +dim sends the top interior layer into
// the receiver's low ghost, -dim the bottom layer into the high one.
func face(l *halo.LinkSpec, dim int, r, dst *Rank) (layer, ghost, side int) {
	if l.Dir.Comp(dim) > 0 {
		return r.N.Comp(dim), 0, 0
	}
	return 1, dst.N.Comp(dim) + 1, 1
}

// inRound reports whether link l belongs to dimension round dim.
func (s *System) inRound(l *halo.LinkSpec, dim int) bool {
	return halo.InRound(l.Stage3Dim, l.Stage3Iter, s.plan.Rounds[dim])
}

// aimRounds builds the three dimension rounds once, since the lattice's
// links never change: one message per link of the round to another rank,
// in the plan's issue order (rank by rank, each rank's Send links in
// SpecLess order, so -dim before +dim), carrying the sender's VCQ and,
// under uTofu, aimed at the receiver's inbox for the ghost layer it fills.
// It binds each round's pack and unpack tasks beside it. A periodic
// self-image (a link back to its sender) is no message: the sender copies
// it (copyImages). An axis one rank wide has only those, any other none.
func (s *System) aimRounds() {
	for dim := range s.rounds {
		b := halo.NewRound(len(s.ranks))
		b.Reset(2 * len(s.ranks))
		for _, r := range s.ranks {
			for _, i := range s.plan.Send[r.ID] {
				l := &s.plan.Links[i]
				if l.Dst == r.ID || !s.inRound(l, dim) {
					continue
				}
				m := b.Add(halo.Msg{Src: r.ID, Dst: l.Dst, Link: int(i), VCQ: r.vcq, Known: true})
				if s.Cfg.Transport == halo.TransportUTofu {
					dst := s.ranks[l.Dst]
					_, _, side := face(l, dim, r, dst)
					m.Region = dst.inboxes[dim][side].Region
				}
			}
		}
		s.rounds[dim] = b
		if len(b.Msgs) == 0 {
			s.packs[dim] = func(id int) { s.copyImages(s.ranks[id], dim) }
			continue
		}
		s.packs[dim] = func(id int) { s.sendPlanes(s.ranks[id], dim) }
		s.unpacks[dim] = func(id int) {
			r := s.ranks[id]
			for _, m := range b.ByDst[id] {
				_, ghost, _ := face(&s.plan.Links[m.Link], dim, s.ranks[m.Src], r)
				r.unpackPlane(dim, ghost, m.Data)
			}
		}
	}
}

// exchange runs the three staged dimension rounds, aimed at New, over the
// post-collision boundary planes through Engine.Run, and settles each
// rank's unpack charges in its receive order. Data is dropped after each
// round: under MPI each plane is a fresh buffer, which must not outlive
// it. Under the overlap variant the interior core's collision cost is
// folded in afterwards: each rank's clock becomes at least (exchange start
// + core collide time), so communication time under the compute envelope
// is hidden.
func (s *System) exchange() {
	if s.Cfg.Overlap {
		for i, r := range s.ranks {
			s.commStart[i] = r.Clock
		}
	}
	for dim, b := range s.rounds {
		s.eng.Run(s.pool, s.Cfg.Transport, b, s.packs[dim], nil, s.unpacks[dim], func(id int) {
			r := s.ranks[id]
			for _, m := range b.ByDst[id] {
				r.Clock += s.unpackCost(len(m.Data))
				m.Data = nil
			}
		})
	}
	if s.Cfg.Overlap {
		for i, r := range s.ranks {
			if t := s.commStart[i] + s.Cost.LBMCollideTime(coreCells(r.N), machine.Pool); t > r.Clock {
				r.Clock = t
			}
		}
	}
}

// sendPlanes is the pack task of a dimension round for rank r: it packs
// the boundary plane of each of r's messages, in link order, charging r's
// clock and stamping each message's ReadyAt after its own plane. Under
// uTofu each plane is packed at its message's Dest in the receiver's
// inbox, which takes exactly one plane a round, from r, so no other task
// touches it; under MPI it is a fresh buffer. It reads other ranks only
// for their immutable extents.
func (s *System) sendPlanes(r *Rank, dim int) {
	for _, m := range s.rounds[dim].BySrc[r.ID] {
		layer, _, _ := face(&s.plan.Links[m.Link], dim, r, s.ranks[m.Dst])
		var buf []byte
		if m.Region != nil {
			buf = m.Dest()
		}
		m.Data = r.packPlane(dim, layer, buf)
		r.Clock += s.packCost(len(m.Data))
		m.ReadyAt = r.Clock
	}
}

// copyImages is the pack task of a dimension round on an axis one rank
// wide: each of r's links in the round is a periodic self-image, which r
// packs and unpacks in place through its staging buffer, in link order.
func (s *System) copyImages(r *Rank, dim int) {
	for _, i := range s.plan.Send[r.ID] {
		l := &s.plan.Links[i]
		if !s.inRound(l, dim) {
			continue
		}
		layer, ghost, _ := face(l, dim, r, r)
		r.selfBuf = r.packPlane(dim, layer, r.selfBuf)
		r.Clock += s.packCost(len(r.selfBuf))
		r.unpackPlane(dim, ghost, r.selfBuf)
		r.Clock += s.unpackCost(len(r.selfBuf))
	}
}
