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
		vcq, err := s.ts.uts.CreateVCQ(r.ID, fwd[s.plan.Send[r.ID][0]].TNI)
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
		Clock: func(rank int) float64 { return s.ranks[rank].Clock },
		Advance: func(rank int, t float64) {
			if r := s.ranks[rank]; t > r.Clock {
				r.Clock = t
			}
		},
	}
}

// plane is one outgoing face plane of a dimension round. The sender's pack
// task fills its slot and packs the payload where it lands (under uTofu,
// the receiver's inbox buffer), the serial gather queues it, and the
// receiver's unpack task reads it there.
type plane struct {
	hm    halo.Msg
	dst   *Rank // nil: periodic self-image, applied by the pack task
	ghost int   // receiver ghost layer the payload lands in
}

// exchange runs the three staged dimension rounds over the post-collision
// boundary planes. Under the overlap variant the interior core's collision
// cost is folded in afterwards: each rank's clock becomes at least
// (exchange start + core collide time), so communication time under the
// compute envelope is hidden.
func (s *System) exchange() {
	if s.Cfg.Overlap {
		for i, r := range s.ranks {
			s.commStart[i] = r.Clock
		}
	}
	for dim := 0; dim < 3; dim++ {
		s.exchangeDim(dim)
	}
	if s.Cfg.Overlap {
		for i, r := range s.ranks {
			if t := s.commStart[i] + s.Cost.LBMCollideTime(coreCells(r.N), machine.Pool); t > r.Clock {
				r.Clock = t
			}
		}
	}
}

// exchangeDim runs one dimension round: every rank ships its two boundary
// planes over the plan's links of the round (or copies them locally when the
// grid is one rank wide on the axis). Packing runs per sender and
// unpacking per receiver in parallel; between them a serial gather builds
// the message list in the plan's issue order (rank by rank, each rank's Send
// links in SpecLess order, so -dim before +dim), so the round and every
// clock addition happen in the same order as a serial loop over the ranks.
// Under uTofu each sender has already packed its plane into the next
// region of the receiver's inbox, so the put finds it in place and the
// receiver unpacks it from there.
func (s *System) exchangeDim(dim int) {
	s.forRanks(func(r *Rank) { s.sendPlanes(r, dim) })
	for i := range s.planes {
		p := &s.planes[i]
		if p.dst == nil {
			continue
		}
		s.hms = append(s.hms, &p.hm)
		p.dst.recv = append(p.dst.recv, p)
	}
	if len(s.hms) == 0 {
		return
	}
	s.eng.RunRound(s.Cfg.Transport, s.hms)
	s.forRanks(func(r *Rank) {
		for _, p := range r.recv {
			r.unpackPlane(dim, p.ghost, p.hm.Data)
			r.Clock += s.unpackCost(len(p.hm.Data))
		}
		r.recv = r.recv[:0]
	})
	// Under MPI the slots hold the only references to the round's fresh
	// planes (hms and the receive lists point into them): clear them so the
	// planes do not outlive the round and hold a step's worth of payload in
	// the live heap. Under uTofu they point into the inboxes, which live on.
	clear(s.planes)
	s.hms = s.hms[:0]
}

// sendPlanes is the pack half of a dimension round for rank r: it packs
// the boundary planes of r's Send links in the round into r's two slots of
// s.planes, charging r's clock, and applies a periodic self-image (a link
// back to r) in place. Under uTofu it aims each plane at the next region
// of the receiver's inbox and packs it there: the inbox takes exactly one
// plane a round, from r, so no other task touches it. Under MPI each plane
// is a fresh buffer handed to the receiver. It reads other ranks only for
// their immutable extents.
func (s *System) sendPlanes(r *Rank, dim int) {
	k := 0
	for _, i := range s.plan.Send[r.ID] {
		l := &s.plan.Links[i]
		if !halo.InRound(l.Stage3Dim, l.Stage3Iter, s.plan.Rounds[dim]) {
			continue
		}
		dst := s.ranks[l.Dst]
		// The sender's boundary layer and the ghost layer it fills on the
		// receiver: +dim sends the top interior layer into the receiver's
		// low ghost, -dim the bottom layer into the high one.
		var layer, ghost, side int
		if l.Dir.Comp(dim) > 0 {
			layer, ghost, side = r.N.Comp(dim), 0, 0
		} else {
			layer, ghost, side = 1, dst.N.Comp(dim)+1, 1
		}
		p := &s.planes[2*r.ID+k]
		k++
		if dst == r {
			// Periodic self-image on a one-rank axis: local copy.
			r.selfBuf = r.packPlane(dim, layer, r.selfBuf)
			r.Clock += s.packCost(len(r.selfBuf))
			r.unpackPlane(dim, ghost, r.selfBuf)
			r.Clock += s.unpackCost(len(r.selfBuf))
			*p = plane{}
			continue
		}
		*p = plane{
			hm:  halo.Msg{Src: r.ID, Dst: dst.ID, VCQ: r.vcq, Known: true},
			dst: dst, ghost: ghost,
		}
		var buf []byte
		if s.Cfg.Transport == halo.TransportUTofu {
			p.hm.Region = dst.inboxes[dim][side].Region
			buf = p.hm.Dest()
		}
		p.hm.Data = r.packPlane(dim, layer, buf)
		r.Clock += s.packCost(len(p.hm.Data))
		p.hm.ReadyAt = r.Clock
	}
}
