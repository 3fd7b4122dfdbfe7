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
	// reg is the inbox registration cost aiming the message incurred, for
	// the receiver to be charged once the round is packed.
	reg float64
}

// msg builds the message sent on one side of the link, carrying the
// sender's VCQ on the side's TNI; the caller aims it, packs its Data and
// stamps ReadyAt.
func (l *link) msg(rev, known bool) rmsg {
	from, to, sd := l.src, l.dst, l.side(rev)
	if rev {
		from, to = to, from
	}
	return rmsg{link: l, Msg: halo.Msg{
		Src: from.ID, Dst: to.ID,
		Thread: sd.Thread, VCQ: from.vcqByTNI[sd.TNI], DstThread: l.side(!rev).Thread,
		Known: known,
	}}
}

// batch collects a round's messages: the engine's view of them, and a
// per-sender and a per-receiver index so packing and unpacking stay linear
// in the message count. reset takes the round's records from a slab, and
// msgs is the used prefix of what it took. A planned operation keeps one
// batch per round and replays it while its epoch is current; the
// simulation's shared batch holds the ad hoc rounds.
type batch struct {
	slab  slab.Slab[rmsg]
	room  []*rmsg
	msgs  []*rmsg
	wire  []*halo.Msg
	bySrc [][]*rmsg
	byDst [][]*rmsg
	// epoch is the plan epoch an operation aimed the batch in; 0, which no
	// epoch equals, after reset.
	epoch uint64
}

// newBatch returns an empty batch for a simulation of n ranks.
func newBatch(n int) *batch {
	return &batch{bySrc: make([][]*rmsg, n), byDst: make([][]*rmsg, n)}
}

// reset empties the batch and makes room for up to n messages.
func (b *batch) reset(n int) {
	b.epoch = 0
	b.room = b.slab.Take(n)
	b.msgs, b.wire = b.room[:0], b.wire[:0]
	for i := range b.byDst {
		b.bySrc[i], b.byDst[i] = b.bySrc[i][:0], b.byDst[i][:0]
	}
}

// add stores rec in the batch and returns the stored message, which the
// caller may still adjust (everything but Src and Dst).
func (b *batch) add(rec rmsg) *rmsg {
	m := b.room[len(b.msgs)]
	*m = rec
	b.msgs = b.room[:len(b.msgs)+1]
	b.wire = append(b.wire, &m.Msg)
	b.bySrc[m.Src] = append(b.bySrc[m.Src], m)
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

// opPlan names the rounds a halo operation aims once per plan epoch and
// replays (Simulation.plans). adHoc, the zero value, aims into the shared
// batch on every run and never replays: border rounds, whose send lists
// are new each time, and ad hoc test operations.
type opPlan int

const (
	adHoc opPlan = iota
	fwdPlan
	revPlan
	scalarRevPlan
	scalarFwdPlan
	numPlans
)

// growInbox grows the owner's inbox ib to hold need bytes, unless it does,
// and returns the registration cost. A growth re-registers the inbox under
// a new STADD, so it advances the plan epoch: a plan aimed at the old
// region, another operation's sharing the inbox included, is aimed afresh.
func (s *Simulation) growInbox(ib *halo.Inbox, owner, need int) float64 {
	region := ib.Region
	cost := ib.Ensure(s.uts, owner, need, s.Var.Preregistered)
	if ib.Region != region {
		s.epoch++
	}
	return cost
}

// registerInbox (re)registers the owner's inbox ib at capBy bytes and
// returns the cost; like every registration it advances the plan epoch.
func (s *Simulation) registerInbox(ib *halo.Inbox, owner, capBy int) float64 {
	s.epoch++
	return ib.Preregister(s.uts, owner, capBy)
}

// chargeRegistration charges an inbox (re)registration to the rank that
// owns the inbox; the cost is zero unless aiming a message grew it, or the
// buffers were pre-registered at their maximum size during setup.
func (s *Simulation) chargeRegistration(owner *Rank, cost float64) {
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
