package sim

import (
	"tofumd/internal/halo"
	"tofumd/internal/md/atom"
	"tofumd/internal/md/domain"
	"tofumd/internal/md/neighbor"
	"tofumd/internal/trace"
	"tofumd/internal/utofu"
	"tofumd/internal/vec"
)

// link is one directed ghost-communication channel from src to dst. The
// struct is shared by both endpoints: src owns the send list, dst owns the
// ghost range. In the real code the receiver tells the sender its ghost
// offset (recv_ptr) via a piggybacked message during the border stage
// (section 3.4); sharing the struct makes that exchange functional here
// while its *time* is still charged explicitly.
type link struct {
	// id is the link's index in the plan's Links and in Simulation.links,
	// the Link of every message sent on it.
	id int
	// spec is the halo-plan entry the link was built from: the endpoint
	// rank ids, the neighbor offset from src to dst in the rank grid, and
	// the 3-stage round it belongs to (Stage3Dim -1 for p2p).
	spec     halo.LinkSpec
	src, dst *Rank
	// shift is the PBC position shift src applies when packing.
	shift vec.V3

	// sendList holds src-side atom indices shipped on this link (locals,
	// or earlier-stage ghosts under 3-stage forwarding).
	sendList []int32
	// recvStart/recvCount locate the ghosts on dst.
	recvStart, recvCount int

	// fwd is the side used when src sends (border/forward), rev the side
	// used when dst sends back (reverse).
	fwd, rev side
}

// side is one sending direction of a link: the sender's thread/TNI
// assignment and packing scratch, and the receiver's registered buffers.
type side struct {
	halo.Res
	// inbox holds the receiver's receive buffers (uTofu transport).
	inbox halo.Inbox
	// reg is the inbox registration cost aiming the side's latest message
	// incurred and not yet charged: the round's stamp charges it to the
	// receiver once the round is packed, and zeroes it.
	reg float64
	// buf is the sender's packing scratch. It only ever holds memory the
	// side owns: a payload sent from the sender's own arrays (haloOp.view)
	// or packed at its destination (haloOp.direct) is never stored here,
	// or a later op growing its scratch would write into those arrays.
	buf []byte
}

// side returns the link's reverse or forward sending side.
func (l *link) side(rev bool) *side {
	if rev {
		return &l.rev
	}
	return &l.fwd
}

// inRound reports whether the link belongs to round k.
func (l *link) inRound(k halo.RoundKey) bool {
	return halo.InRound(l.spec.Stage3Dim, l.spec.Stage3Iter, k)
}

// Rank is the per-MPI-rank simulation state.
type Rank struct {
	ID    int
	Coord vec.I3
	// Lo and Hi bound the rank's sub-box.
	Lo, Hi vec.V3

	Atoms *atom.Arrays
	NL    *neighbor.List
	// XHold are the local positions at the last neighbor rebuild, for the
	// half-skin displacement check.
	XHold []vec.V3

	// Clock is the rank's virtual time in seconds.
	Clock float64
	// BD is the per-stage time breakdown.
	BD *trace.Breakdown

	// sendLinks are links where this rank is the sender; recvLinks where
	// it is the receiver. A 3-stage link appears in both lists of the two
	// endpoint ranks.
	sendLinks []*link
	recvLinks []*link

	// vcqByTNI holds the rank's allocated VCQs, indexed by TNI (nil where
	// the rank holds none).
	vcqByTNI []*utofu.VCQ

	// qual decides ghost-send qualification for the sub-box.
	qual *domain.SendQualifier
	// binDirs maps border bins to p2p directions when the fast path is on.
	binDirs [27][]vec.I3
	binOK   bool

	// peLocal and virLocal hold the rank's force-evaluation result of the
	// current step.
	peLocal  float64
	virLocal float64
	// pairs is the interaction count of the rank's latest force pass, work
	// done beside a round and charged to the clock after it.
	pairs int
	// kept is the EAM density pass's kept-pair mask over NL, which the
	// step's force pass replays; reused across steps.
	kept []uint64

	// dimGhostMark is the ghost watermark at the start of the current
	// 3-stage dimension (iteration-0 send lists scan indices below it).
	dimGhostMark int

	// exchScratch buffers migrating atoms per destination rank.
	exchScratch map[int][]exchRecord

	// maxAtomsEstimate is the theoretical maximum atom count (locals plus
	// ghost shell) that sizes the pre-registered position region.
	maxAtomsEstimate int
}

// positionBytes is the byte view of the rank's first maxAtomsEstimate
// position slots, the pre-registered position region; X's capacity was
// reserved to that size at setup.
func (r *Rank) positionBytes() []byte {
	return halo.V3Bytes(r.Atoms.X[:r.maxAtomsEstimate])
}

// resetPlan clears the per-reneighbor link state of a rank's send links.
func (r *Rank) resetPlan() {
	for _, l := range r.sendLinks {
		l.sendList = l.sendList[:0]
		l.recvStart, l.recvCount = 0, 0
	}
}
