package sim

import (
	"tofumd/internal/halo"
	"tofumd/internal/health"
	"tofumd/internal/trace"
	"tofumd/internal/utofu"
)

// rmsg is one message of a bulk-synchronous communication round, carrying
// absolute virtual times.
type rmsg struct {
	src, dst *Rank
	// link is the channel; nil for exchange-stage messages.
	link *link
	// res is the sender-side communication resource.
	res commRes
	// dstThread is the receiver-side polling context.
	dstThread int
	// data is the payload.
	data []byte
	// known marks length-known messages (forward/reverse reuse border
	// lists); unknown-length messages pay the MPI two-step protocol.
	known bool
	// inboxDst selects the uTofu destination: the link's forward inbox,
	// reverse inbox, or the pre-registered position array.
	inboxDst inboxKind
	// dstOff is the byte offset for direct-to-array puts.
	dstOff int
	// readyAt is the absolute sender time the payload is packed.
	readyAt float64

	// complete is the absolute receiver completion; issueDone the absolute
	// sender CPU-free time.
	complete, issueDone float64
}

// inboxKind selects the uTofu destination region of a message.
type inboxKind int

const (
	inboxFwd inboxKind = iota
	inboxRev
	inboxXArray
)

// fallbackK is the graceful-degradation threshold: after this many
// consecutive uTofu delivery failures to the same neighbor, traffic to
// that neighbor is routed over the 3-stage-capable MPI path until a
// plan rebuild (border) re-arms the link.
const fallbackK = 3

// newEngine wires the generic halo round engine to the simulation's state:
// rank clocks, VCQ tables, the fallback/health trackers, metrics and trace
// spans all stay on this side of the seam.
func (s *Simulation) newEngine() *halo.Engine {
	return &halo.Engine{
		Fab: s.fab,
		UTS: s.uts,
		MPI: s.mpiComm,
		VCQ: func(rank, tni int) *utofu.VCQ { return s.ranks[rank].vcqByTNI[tni] },
		Clock: func(rank int) float64 { return s.ranks[rank].Clock },
		Advance: func(rank int, t float64) {
			if r := s.ranks[rank]; t > r.Clock {
				r.Clock = t
			}
		},
		AnyDegraded: func() bool {
			return s.fb.DegradedCount() > 0 || s.health.QuarantinedLinkCount() > 0
		},
		Degraded: func(src, dst int) bool {
			return s.fb.Degraded(src, dst) || s.health.LinkQuarantined(src, dst)
		},
		OnFailure: func(src, dst, tni int, at float64) bool {
			s.fb.RecordFailure(src, dst)
			s.health.RecordLinkFailure(src, dst, tni, at)
			return s.health.RecordTNIFailure(tni, at) == health.Quarantined
		},
		OnSuccess: func(src, dst, tni int) {
			s.fb.RecordSuccess(src, dst)
			s.health.RecordLinkSuccess(src, dst)
			s.health.RecordTNISuccess(tni)
		},
		OnReplan: func() { s.replanTNIs() },
		OnFallback: func(msgs []*halo.Msg) {
			if s.met != nil {
				s.met.fallbackMsgs.Add(int64(len(msgs)))
				s.met.fallbackRounds.Inc()
			}
		},
		OnFallbackDone: func(msgs []*halo.Msg) {
			if s.rec.Enabled() {
				for _, m := range msgs {
					s.rec.Span(trace.SpanEvent{
						Rank: m.Src, Name: "p2p-fallback", Stage: trace.Comm.String(),
						Step: s.step, Start: m.ReadyAt, End: m.Complete,
					})
				}
			}
		},
	}
}

// runRound executes the messages through the variant's transport and
// advances the participating ranks' clocks to their completion times.
// Payload delivery is functional: after the call, receivers read the data
// from the rmsg (the caller unpacks).
func (s *Simulation) runRound(msgs []*rmsg) {
	if len(msgs) == 0 {
		return
	}
	hm := make([]*halo.Msg, len(msgs))
	for i, m := range msgs {
		hm[i] = &halo.Msg{
			Src: m.src.ID, Dst: m.dst.ID,
			Thread: m.res.thread, DstThread: m.dstThread, TNI: m.res.tni,
			Data: m.data, Known: m.known,
			ReadyAt: m.readyAt,
		}
		if s.Var.Transport == halo.TransportUTofu {
			hm[i].Region, hm[i].DstOff = s.putTarget(m)
		}
	}
	s.eng.RunRound(s.Var.Transport, hm)
	for i, m := range msgs {
		m.readyAt = hm[i].ReadyAt
		m.complete = hm[i].Complete
		m.issueDone = hm[i].IssueDone
	}
}

// putTarget resolves the destination region and offset of a uTofu message.
func (s *Simulation) putTarget(m *rmsg) (*utofu.MemRegion, int) {
	switch m.inboxDst {
	case inboxXArray:
		return s.xRegion[m.dst.ID], m.dstOff
	case inboxRev:
		ib := m.link.revInbox
		return ib.Regions[m.link.seq%4], 0
	default:
		ib := m.link.inbox
		return ib.Regions[m.link.seq%4], 0
	}
}

// ensureInbox grows (and re-registers) an inbox to hold at least need
// bytes, charging the registration cost to the owning rank unless the
// buffers were pre-registered at their maximum size during setup. Returns
// the virtual-time cost charged.
func (s *Simulation) ensureInbox(owner *Rank, ib *halo.Inbox, need int) float64 {
	cost := ib.Ensure(s.uts, owner.ID, need, s.Var.Preregistered)
	if cost == 0 {
		return 0
	}
	owner.Clock += cost
	if s.rec.Enabled() {
		s.rec.Instant(trace.InstantEvent{
			Rank: owner.ID, Name: "register", Time: owner.Clock,
		})
	}
	return cost
}
