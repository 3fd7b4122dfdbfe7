package sim

import (
	"tofumd/internal/halo"
	"tofumd/internal/slab"
	"tofumd/internal/trace"
)

// rmsg is one message of a bulk-synchronous communication round: the
// engine's halo.Msg (endpoints, resources, payload, absolute virtual times)
// plus the link it travels on.
type rmsg struct {
	halo.Msg
	// link is the channel; nil for exchange-stage messages.
	link *link
}

// msg builds the message sent on one side of the link, carrying the side's
// packing scratch and the sender's VCQ on the side's TNI; the caller aims
// it and stamps ReadyAt.
func (l *link) msg(rev, known bool) rmsg {
	from, to, sd := l.src, l.dst, l.side(rev)
	if rev {
		from, to = to, from
	}
	return rmsg{link: l, Msg: halo.Msg{
		Src: from.ID, Dst: to.ID,
		Thread: sd.Thread, VCQ: from.vcqByTNI[sd.TNI], DstThread: l.side(!rev).Thread,
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
// rank clocks and the fallback/health trackers, with the TNI re-plan,
// metrics and trace spans behind the engine's hooks.
func (s *Simulation) newEngine() *halo.Engine {
	return &halo.Engine{
		Fab:   s.fab,
		UTS:   s.uts,
		MPI:   s.mpiComm,
		Clock: func(rank int) float64 { return s.ranks[rank].Clock },
		Advance: func(rank int, t float64) {
			if r := s.ranks[rank]; t > r.Clock {
				r.Clock = t
			}
		},
		Fallback: s.fb,
		Health:   s.health,
		OnReplan: s.replanTNIs,
		OnFallback: func(msgs []*halo.Msg) {
			if s.met != nil {
				s.met.fallbackMsgs.Add(int64(len(msgs)))
				s.met.fallbackRounds.Inc()
			}
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
