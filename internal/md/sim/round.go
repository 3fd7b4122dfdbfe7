package sim

import (
	"tofumd/internal/halo"
	"tofumd/internal/health"
	"tofumd/internal/slab"
	"tofumd/internal/trace"
	"tofumd/internal/utofu"
)

// rmsg is one message of a bulk-synchronous communication round: the
// engine's halo.Msg (endpoints, resources, payload, absolute virtual times)
// plus the link it travels on.
type rmsg struct {
	halo.Msg
	// link is the channel; nil for exchange-stage messages.
	link *link
	// inbox is the uTofu destination: the receiver's registered buffers of
	// the sending side, or nil when the payload lands directly in the
	// receiver's pre-registered position array at DstOff.
	inbox *halo.Inbox
}

// msg builds the message sent on one side of the link, carrying the side's
// packing scratch; the caller stamps ReadyAt.
func (l *link) msg(rev, known bool) rmsg {
	from, to, sd := l.src, l.dst, l.side(rev)
	if rev {
		from, to = to, from
	}
	return rmsg{link: l, inbox: &sd.inbox, Msg: halo.Msg{
		Src: from.ID, Dst: to.ID,
		Thread: sd.Thread, TNI: sd.TNI, DstThread: l.side(!rev).Thread,
		Data: sd.buf, Known: known,
	}}
}

// batch collects a round's messages: the engine's view of them, and a
// per-receiver index so unpacking stays linear in the message count. The
// simulation has one and reuses it for every round: reset takes the round's
// records from a slab, and msgs is the used prefix of what it took.
type batch struct {
	slab  slab.Slab[rmsg]
	room  []*rmsg
	msgs  []*rmsg
	wire  []*halo.Msg
	byDst [][]*rmsg
}

// reset empties the batch and makes room for up to n messages.
func (b *batch) reset(n int) {
	b.room = b.slab.Take(n)
	b.msgs, b.wire = b.room[:0], b.wire[:0]
	for i := range b.byDst {
		b.byDst[i] = b.byDst[i][:0]
	}
}

// add stores rec in the batch and returns the stored message, which the
// caller may still adjust (everything but Dst).
func (b *batch) add(rec rmsg) *rmsg {
	m := b.room[len(b.msgs)]
	*m = rec
	b.msgs = b.room[:len(b.msgs)+1]
	b.wire = append(b.wire, &m.Msg)
	b.byDst[m.Dst] = append(b.byDst[m.Dst], m)
	return m
}

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
		Fab:   s.fab,
		UTS:   s.uts,
		MPI:   s.mpiComm,
		VCQ:   func(rank, tni int) *utofu.VCQ { return s.ranks[rank].vcqByTNI[tni] },
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

// runRound executes the batch through transport t and advances the
// participating ranks' clocks to their completion times. Payload delivery
// is functional: after the call, receivers read the data from the rmsg (the
// caller unpacks).
func (s *Simulation) runRound(t halo.Transport, b *batch) {
	if t == halo.TransportUTofu {
		for _, m := range b.msgs {
			if m.inbox == nil {
				m.Region = s.xRegion[m.Dst]
			} else {
				m.Region = m.inbox.Regions[m.link.seq%4]
			}
		}
	}
	s.eng.RunRound(t, b.wire)
}

// deliverToInboxes points every inbox message of a uTofu round at its
// receive buffer, making the round-robin rotation functional: the receiver
// decodes from its own registered buffer, not the sender's scratch. A put
// already wrote the payload there (the buffer is the region's); only the
// messages that fell back to MPI are copied in.
func (s *Simulation) deliverToInboxes(b *batch) {
	if s.Var.Transport != halo.TransportUTofu {
		return
	}
	for _, m := range b.msgs {
		if m.inbox == nil {
			continue
		}
		buf := m.inbox.Bufs[m.link.seq%4]
		if m.OverMPI {
			copy(buf, m.Data)
		}
		m.Data = buf[:len(m.Data)]
	}
}

// ensureInbox grows (and re-registers) an inbox to hold at least need
// bytes, charging the registration cost to the owning rank unless the
// buffers were pre-registered at their maximum size during setup.
func (s *Simulation) ensureInbox(owner *Rank, ib *halo.Inbox, need int) {
	cost := ib.Ensure(s.uts, owner.ID, need, s.Var.Preregistered)
	if cost == 0 {
		return
	}
	owner.Clock += cost
	if s.rec.Enabled() {
		s.rec.Instant(trace.InstantEvent{
			Rank: owner.ID, Name: "register", Time: owner.Clock,
		})
	}
}
