package halo

import (
	"fmt"
	"math"

	"tofumd/internal/mpi"
	"tofumd/internal/slab"
	"tofumd/internal/tofu"
	"tofumd/internal/utofu"
)

// Msg is one message of a bulk-synchronous halo round, carrying absolute
// virtual times. The app packs Data and, under the uTofu transport, resolves
// the destination Region/DstOff before handing the message to the Engine;
// the Engine fills Complete, IssueDone and OverMPI.
type Msg struct {
	// Src and Dst are rank ids.
	Src, Dst int
	// Thread is the sender-side comm thread, DstThread the receiver-side
	// polling context.
	Thread, DstThread int
	// TNI is the sender-side network interface.
	TNI int
	// Data is the payload.
	Data []byte
	// Known marks length-known messages (plan reuse); unknown-length
	// messages pay the MPI two-step protocol.
	Known bool
	// Region and DstOff locate the uTofu destination (nil under MPI).
	Region *utofu.MemRegion
	DstOff int
	// ReadyAt is the absolute sender time the payload is packed.
	ReadyAt float64

	// Complete is the absolute receiver completion; IssueDone the absolute
	// sender CPU-free time.
	Complete, IssueDone float64
	// OverMPI reports the message went over the MPI path: every message of
	// an MPI round, and a uTofu round's fallback. A uTofu put wrote Data into
	// Region at DstOff; an MPI message left it with the receiver as Data.
	OverMPI bool
}

// Engine executes bulk-synchronous halo rounds over the uTofu one-sided
// stack or the MPI two-sided stack, with the graceful-degradation fallback
// of section 3.4: messages to neighbors the app reports degraded or
// quarantined skip uTofu, and puts whose retransmit budget is exhausted are
// re-sent over MPI. App state (rank clocks, fallback/health trackers,
// metrics, traces) stays behind the hook functions, so the same engine
// drives MD ghost rounds and lattice stencil rounds unchanged.
type Engine struct {
	// Fab is the fabric whose RecBase anchors round-relative trace times.
	Fab *tofu.Fabric
	// UTS drives uTofu puts; MPI drives two-sided rounds and fallbacks.
	UTS *utofu.System
	MPI *mpi.Comm

	// VCQ resolves a rank's VCQ on a TNI (uTofu transport only).
	VCQ func(rank, tni int) *utofu.VCQ
	// Clock returns a rank's current virtual time.
	Clock func(rank int) float64
	// Advance raises a rank's clock to at least t.
	Advance func(rank int, t float64)

	// AnyDegraded gates the per-message Degraded scan (nil = never).
	AnyDegraded func() bool
	// Degraded reports whether src→dst must route over MPI this round.
	Degraded func(src, dst int) bool
	// OnFailure records a permanently failed put and reports whether the
	// resource plan must be rebuilt before the next round (TNI quarantine).
	OnFailure func(src, dst, tni int, at float64) (replan bool)
	// OnSuccess records a delivered put.
	OnSuccess func(src, dst, tni int)
	// OnReplan rebuilds the resource plan after a TNI quarantine; called at
	// the end of uTofu processing, before the MPI fallback round.
	OnReplan func()
	// OnFallback observes the fallback batch before its MPI round (metric
	// counters); OnFallbackDone observes it after, when Complete is known
	// (trace spans).
	OnFallback     func(msgs []*Msg)
	OnFallbackDone func(msgs []*Msg)

	// puts and mm back the transport records a round is translated into.
	puts slab.Slab[utofu.Put]
	mm   slab.Slab[mpi.Message]
}

// RunRound executes the messages through the transport and advances the
// participating ranks' clocks to their completion times. Payload delivery
// is functional: after the call, receivers read the data from the Msg (the
// app unpacks).
func (e *Engine) RunRound(t Transport, msgs []*Msg) {
	if len(msgs) == 0 {
		return
	}
	base := math.Inf(1)
	for _, m := range msgs {
		if m.ReadyAt < base {
			base = m.ReadyAt
		}
		if c := e.Clock(m.Dst); c < base {
			base = c
		}
	}
	// The fabric's round-relative times become absolute via this offset.
	e.Fab.RecBase = base
	if t == TransportMPI {
		e.runMPIRound(msgs, base)
	} else {
		e.runUTofuRoundReliable(msgs, base)
	}
	// Advance clocks: receivers to their completions, senders to their
	// injection completions.
	for _, m := range msgs {
		e.Advance(m.Dst, m.Complete)
		e.Advance(m.Src, m.IssueDone)
	}
}

func (e *Engine) runMPIRound(msgs []*Msg, base float64) {
	mm := e.mm.Take(len(msgs))
	for i, m := range msgs {
		*mm[i] = mpi.Message{
			Src:         m.Src,
			Dst:         m.Dst,
			Tag:         i,
			Data:        m.Data,
			KnownLength: m.Known,
			ReadyAt:     m.ReadyAt - base,
			RecvReadyAt: e.Clock(m.Dst) - base,
		}
	}
	e.MPI.ExchangeRound(mm)
	for i, m := range msgs {
		m.Complete = base + mm[i].RecvComplete
		m.IssueDone = base + mm[i].IssueDone
		m.OverMPI = true
	}
	e.mm.Release()
}

// runUTofuRoundReliable delivers a uTofu round even under fault injection:
// messages to degraded neighbors skip uTofu entirely, and puts whose
// retransmit budget is exhausted are re-sent over the MPI path. Without
// faults this reduces to a plain runUTofuRound.
func (e *Engine) runUTofuRoundReliable(msgs []*Msg, base float64) {
	direct := msgs
	var fallback []*Msg
	if e.AnyDegraded != nil && e.AnyDegraded() {
		direct = direct[:0:0]
		for _, m := range msgs {
			if e.Degraded(m.Src, m.Dst) {
				fallback = append(fallback, m)
			} else {
				direct = append(direct, m)
			}
		}
	}
	fallback = append(fallback, e.runUTofuRound(direct, base)...)
	if len(fallback) == 0 {
		return
	}
	if e.OnFallback != nil {
		e.OnFallback(fallback)
	}
	e.runMPIRound(fallback, base)
	if e.OnFallbackDone != nil {
		e.OnFallbackDone(fallback)
	}
}

// runUTofuRound issues the messages as uTofu puts and returns the ones
// that failed permanently (retransmit budget exhausted); their ReadyAt is
// advanced to the failure-detection time so a fallback resend starts from
// when the sender learned of the loss.
func (e *Engine) runUTofuRound(msgs []*Msg, base float64) []*Msg {
	if len(msgs) == 0 {
		return nil
	}
	puts := e.puts.Take(len(msgs))
	for i, m := range msgs {
		vcq := e.VCQ(m.Src, m.TNI)
		if vcq == nil {
			panic(fmt.Sprintf("halo: rank %d has no VCQ on TNI %d", m.Src, m.TNI))
		}
		*puts[i] = utofu.Put{
			VCQ:       vcq,
			Thread:    m.Thread,
			DstThread: m.DstThread,
			DstSTADD:  m.Region.STADD,
			DstOff:    m.DstOff,
			Src:       m.Data,
			ReadyAt:   m.ReadyAt - base,
		}
	}
	if err := e.UTS.ExecuteRound(puts); err != nil {
		panic("halo: utofu round failed: " + err.Error())
	}
	var failed []*Msg
	replan := false
	for i, m := range msgs {
		if puts[i].Failed {
			at := base + puts[i].FailedAt
			if e.OnFailure != nil && e.OnFailure(m.Src, m.Dst, m.TNI, at) {
				replan = true
			}
			m.ReadyAt = at
			failed = append(failed, m)
			continue
		}
		if e.OnSuccess != nil {
			e.OnSuccess(m.Src, m.Dst, m.TNI)
		}
		m.Complete = base + puts[i].RecvComplete
		m.IssueDone = base + puts[i].IssueDone
		m.OverMPI = false
	}
	e.puts.Release()
	if replan && e.OnReplan != nil {
		// A TNI crossed into quarantine this round: re-balance over the
		// survivors before the next round injects on a dead interface.
		e.OnReplan()
	}
	return failed
}
