package sim

import (
	"tofumd/internal/halo"
	"tofumd/internal/trace"
)

// msg builds the message sent on one side of the link, carrying the
// sender's VCQ on the side's TNI; the caller aims it, packs its Data and
// stamps ReadyAt.
func (l *link) msg(rev, known bool) halo.Msg {
	from, to, sd := l.src, l.dst, l.side(rev)
	if rev {
		from, to = to, from
	}
	return halo.Msg{
		Src: from.ID, Dst: to.ID, Link: l.id,
		Thread: sd.Thread, VCQ: from.vcqByTNI[sd.TNI], DstThread: l.side(!rev).Thread,
		Known: known,
	}
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
		Fab:      s.fab,
		UTS:      s.uts,
		MPI:      s.mpiComm,
		Clock:    func(rank int) *float64 { return &s.ranks[rank].Clock },
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
// round on every run and never replays: border rounds, whose send lists
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
