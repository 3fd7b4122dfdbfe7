package halo

import (
	"fmt"
	"math"

	"tofumd/internal/health"
	"tofumd/internal/mpi"
	"tofumd/internal/slab"
	"tofumd/internal/tofu"
	"tofumd/internal/utofu"
)

// Msg is one message of a bulk-synchronous halo round, carrying absolute
// virtual times. The app packs Data and, under the uTofu transport, sets the
// sender's VCQ and the destination Region/DstOff before handing the message
// to the Engine; the Engine fills Complete, IssueDone and OverMPI and, under
// uTofu, replaces Data with the landed bytes.
//
// An app that aims a message before packing it can pack straight into
// Dest, the bytes the payload lands in (section 3.4's registered arrays,
// or an inbox buffer no other sender of the round writes). Data then
// aliases its region: the round charges the put in full, and neither a
// put's delivery nor the landing of an MPI fallback copies anything
// (utofu.Deliver). Every message of a uTofu round lands, by put or by
// fallback, so a region written early holds the same bytes at the end of
// the round as one the put wrote, and a round whose payloads all lie at
// their Dest writes neither a payload byte nor a Data field: the receivers
// may read them while the round's timing runs.
type Msg struct {
	// Src and Dst are rank ids.
	Src, Dst int
	// Link is the index in Plan.Links of the link the message travels on,
	// or -1 for a message on no link (atom migration).
	Link int
	// Thread is the sender-side comm thread, DstThread the receiver-side
	// polling context.
	Thread, DstThread int
	// VCQ is the sender's injection queue (uTofu transport only); its TNI
	// is the network interface the put leaves on.
	VCQ *utofu.VCQ
	// Data is the payload: the sender's scratch, a view of its own arrays,
	// or bytes packed in place at Dest. Under the uTofu transport RunRound
	// points a non-empty payload at its bytes in the receiver's region,
	// Region.Buf[DstOff:], whether a put wrote them or the MPI fallback
	// carried them (one packed in place already points there and is not
	// written); under MPI it stays the sender's slice.
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
	// an MPI round, and a uTofu round's fallback.
	OverMPI bool
}

// Engine executes bulk-synchronous halo rounds over the uTofu one-sided
// stack or the MPI two-sided stack, with the graceful-degradation fallback
// of section 3.4: messages to neighbors the Fallback tracker degraded or
// the Health tracker quarantined skip uTofu, and puts whose retransmit
// budget is exhausted are re-sent over MPI and landed in their region.
// Because every message lands, a payload packed in place at its Dest
// needs no staging copy: a dropped, NACK-exhausted or quarantined message
// ends the round with the same region bytes as a staged one. Rank clocks,
// the re-plan and fallback observers stay behind the hook functions, so
// the same engine drives MD ghost rounds and lattice stencil rounds
// unchanged.
type Engine struct {
	// Fab is the fabric whose RecBase anchors round-relative trace times.
	Fab *tofu.Fabric
	// UTS drives uTofu puts; MPI drives two-sided rounds and fallbacks.
	UTS *utofu.System
	MPI *mpi.Comm

	// Clock returns a rank's virtual clock. The engine reads it for the
	// round's base and raises it to the rank's completions.
	Clock func(rank int) *float64

	// Fallback and Health record every put's outcome and route degraded or
	// quarantined src→dst pairs over MPI; either may be nil (no tracking).
	Fallback *Fallback
	Health   *health.Tracker
	// OnReplan rebuilds the resource plan after a TNI quarantine; called at
	// the end of uTofu processing, before the MPI fallback round.
	OnReplan func()
	// OnFallback observes the fallback batch after its MPI round, when
	// Complete is known (metric counters, trace spans).
	OnFallback func(msgs []*Msg)

	// puts and mm back the transport records a round is translated into.
	puts slab.Slab[utofu.Put]
	mm   slab.Slab[mpi.Message]
}

// RunRound executes the messages through the transport and advances the
// participating ranks' clocks to their completion times. Payload delivery
// is functional: after the call, receivers read the data from each Msg's
// Data, which under uTofu is the receiver's registered region (the app
// unpacks).
func (e *Engine) RunRound(t Transport, msgs []*Msg) {
	if len(msgs) == 0 {
		return
	}
	base := math.Inf(1)
	for _, m := range msgs {
		if m.ReadyAt < base {
			base = m.ReadyAt
		}
		if c := *e.Clock(m.Dst); c < base {
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
		advance(e.Clock(m.Dst), m.Complete)
		advance(e.Clock(m.Src), m.IssueDone)
	}
}

// advance raises the clock to at least t.
func advance(clock *float64, t float64) {
	if t > *clock {
		*clock = t
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
			RecvReadyAt: *e.Clock(m.Dst) - base,
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
	if e.Fallback.DegradedCount() > 0 || e.Health.QuarantinedLinkCount() > 0 {
		direct = direct[:0:0]
		for _, m := range msgs {
			if e.Fallback.Degraded(m.Src, m.Dst) || e.Health.LinkQuarantined(m.Src, m.Dst) {
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
	e.runMPIRound(fallback, base)
	for _, m := range fallback {
		if m.DstOff < 0 || m.DstOff+len(m.Data) > len(m.Region.Buf) {
			panic(fmt.Sprintf("halo: fallback %d→%d writes [%d,%d) outside region of %d bytes",
				m.Src, m.Dst, m.DstOff, m.DstOff+len(m.Data), len(m.Region.Buf)))
		}
		utofu.Deliver(m.Region.Buf[m.DstOff:], m.Data)
		m.land()
	}
	if e.OnFallback != nil {
		e.OnFallback(fallback)
	}
}

// Dest returns the bytes from the message's destination offset to the end
// of its region, Region.Buf[DstOff:], capped there so that growing a slice
// of it never reaches past the region. A sender that packs its payload
// into Dest writes it where it lands.
func (m *Msg) Dest() []byte {
	b := m.Region.Buf
	return b[m.DstOff:len(b):len(b)]
}

// land points Data at the bytes the message wrote into its region. A
// payload packed there already points at them and is left alone, as is an
// empty one, so a round of such payloads writes no Data: receivers may read
// it while the round runs.
func (m *Msg) land() {
	if len(m.Data) == 0 {
		return
	}
	if d := m.Dest(); &m.Data[0] != &d[0] {
		m.Data = d[:len(m.Data)]
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
		if m.VCQ == nil {
			panic(fmt.Sprintf("halo: message %d→%d has no VCQ", m.Src, m.Dst))
		}
		*puts[i] = utofu.Put{
			VCQ:       m.VCQ,
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
		tni := m.VCQ.TNI
		if puts[i].Failed {
			at := base + puts[i].FailedAt
			e.Fallback.RecordFailure(m.Src, m.Dst)
			e.Health.RecordLinkFailure(m.Src, m.Dst, tni, at)
			if e.Health.RecordTNIFailure(tni, at) == health.Quarantined {
				replan = true
			}
			m.ReadyAt = at
			failed = append(failed, m)
			continue
		}
		e.Fallback.RecordSuccess(m.Src, m.Dst)
		e.Health.RecordLinkSuccess(m.Src, m.Dst)
		e.Health.RecordTNISuccess(tni)
		m.Complete = base + puts[i].RecvComplete
		m.IssueDone = base + puts[i].IssueDone
		m.OverMPI = false
		m.land()
	}
	e.puts.Release()
	if replan && e.OnReplan != nil {
		// A TNI crossed into quarantine this round: re-balance over the
		// survivors before the next round injects on a dead interface.
		e.OnReplan()
	}
	return failed
}
