// Package mpi implements a message-passing layer over the simulated TofuD
// fabric with the software-stack costs of a full MPI implementation: per-
// message tag matching, eager/rendezvous protocol switching, and an
// injection interval several times larger than the raw uTofu interface.
// It is the transport of the paper's baseline ("ref") LAMMPS and of the
// naive MPI-p2p variant of Fig. 6.
//
// The layer is bulk-synchronous: the simulation collects the sends of one
// communication round from every rank and executes them together, mirroring
// how the timing of a halo exchange is determined by the whole round rather
// than any single call.
package mpi

import (
	"fmt"
	"sort"

	"tofumd/internal/metrics"
	"tofumd/internal/tofu"
	"tofumd/internal/trace"
	"tofumd/internal/units"
)

// Comm is an MPI communicator over all ranks of a fabric.
type Comm struct {
	Fab *tofu.Fabric
	// CombineLength enables the message-combine optimization of
	// section 3.5.1: the array length rides in the first element of the
	// payload instead of a separate message. Off for the baseline.
	CombineLength bool
	// Rec, when non-nil, receives one RoundEvent per collective. Now, when
	// set, supplies the absolute virtual time a collective starts at (the
	// communicator itself has no clock; the driver's is authoritative).
	Rec *trace.Recorder
	Now func() float64

	// met caches metric handles (see SetMetrics); nil when metrics are off.
	met *commMetrics

	// tniOf[rank] is the TNI Fujitsu MPI would drive for the rank: ranks are
	// spread round-robin over the node's TNIs by their local slot.
	tniOf []int
}

// commMetrics caches the MPI layer's metric handles.
type commMetrics struct {
	p2pRounds, p2pMsgs, p2pBytes *metrics.Counter
	retransmits                  *metrics.Counter
	allreduces, allreduceBytes   *metrics.Counter
	allreduceSeconds             *metrics.Histogram
}

// SetMetrics enables (or, with a nil registry, disables) metric collection.
func (c *Comm) SetMetrics(reg *metrics.Registry) {
	if !reg.Enabled() {
		c.met = nil
		return
	}
	c.met = &commMetrics{
		p2pRounds:        reg.Counter("mpi_p2p", "rounds"),
		p2pMsgs:          reg.Counter("mpi_p2p", "msgs"),
		p2pBytes:         reg.Counter("mpi_p2p", "bytes"),
		retransmits:      reg.Counter("mpi_p2p", "retransmits"),
		allreduces:       reg.Counter("mpi_allreduce", "calls"),
		allreduceBytes:   reg.Counter("mpi_allreduce", "bytes"),
		allreduceSeconds: reg.Histogram("mpi_allreduce_seconds", "all"),
	}
}

// NewComm returns a communicator over the fabric's ranks.
func NewComm(fab *tofu.Fabric) *Comm {
	c := &Comm{Fab: fab, tniOf: make([]int, fab.Map.Ranks())}
	for rank := range c.tniOf {
		_, slot := fab.Map.NodeOf(rank)
		c.tniOf[rank] = slot % fab.Params.TNIsPerNode
	}
	return c
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.Fab.Map.Ranks() }

// Message is one point-to-point message of a round.
type Message struct {
	Src, Dst int
	Tag      int
	// Data is the payload, delivered to the receiver verbatim.
	Data []byte
	// KnownLength marks messages whose size the receiver already knows
	// (forward/reverse exchanges reuse border-stage lists); unknown-length
	// messages pay the two-step protocol unless CombineLength is set.
	KnownLength bool
	// ReadyAt is the sender virtual time the payload is packed.
	ReadyAt float64
	// RecvReadyAt is the receiver virtual time its Irecv is posted.
	RecvReadyAt float64

	// Attempts counts transmissions performed (1 for a clean exchange; more
	// when fault injection forced retries).
	Attempts int

	// IssueDone is when the sender's CPU is free (MPI_Isend return).
	IssueDone float64
	// RecvComplete is when the receiver owns the data (MPI_Wait return),
	// including the matching/copy overhead and waiting for the receiver to
	// have posted the receive.
	RecvComplete float64
}

// ExchangeRound executes a set of point-to-point messages as one fabric
// round. Every rank issues its messages from a single thread (MPI progress
// is single-threaded here, as in the baseline code) in slice order. Payloads
// are delivered by reference; receivers see the sender's bytes.
//
// MPI is a reliable transport: under fault injection, a dropped message —
// eager payload or rendezvous RTS/CTS, which the model folds into the same
// transfer — is detected by the sender's protocol timeout and the exchange
// (including the rendezvous handshake) is re-driven with capped backoff
// until it lands. Unlike the uTofu layer there is no failure escape hatch:
// a round that cannot complete within MPIRetryLimit waves means the
// configured fault rate is unsatisfiable, which is a configuration error.
func (c *Comm) ExchangeRound(msgs []*Message) {
	if len(msgs) == 0 {
		return
	}
	p := &c.Fab.Params
	transfers := c.Fab.Transfers(len(msgs))
	for i, m := range msgs {
		twoStep := !m.KnownLength && !c.CombineLength
		bytes := len(m.Data)
		if c.CombineLength && !m.KnownLength {
			bytes += 8 // length header rides in the payload
		}
		m.Attempts = 0
		*transfers[i] = tofu.Transfer{
			Src:     m.Src,
			Dst:     m.Dst,
			TNI:     c.tniOf[m.Src],
			VCQ:     m.Src, // one software channel per rank
			Thread:  0,
			Bytes:   bytes,
			ReadyAt: m.ReadyAt,
			TwoStep: twoStep,
		}
	}
	var last, bytes float64
	limit := p.MPIRetryLimit
	if limit <= 0 {
		limit = 64
	}
	// Wave 0 is the slab's slice itself; a later wave is the re-driven
	// transfers compacted to its front, owner mapping each to its message.
	var owner []int
	for wave := 0; len(transfers) > 0; wave++ {
		if wave >= limit {
			panic(fmt.Sprintf("mpi: exchange round did not complete within %d retry waves; "+
				"the injected fault rate starves the reliable transport", limit))
		}
		if err := c.Fab.RunRound(transfers, tofu.IfaceMPI); err != nil {
			// The reliable transport cannot proceed on an undrained fabric
			// round; like retry-wave exhaustion this is a hard stop.
			panic("mpi: " + err.Error())
		}
		lost := 0
		for j, tr := range transfers {
			i := j
			if wave > 0 {
				i = owner[j]
			}
			m := msgs[i]
			m.Attempts++
			if tr.Failed() {
				// Sender re-drives the protocol after the completion timeout.
				detect := tr.IssueDone + c.Fab.WireTime(units.Bytes(tr.Bytes)) + p.CompletionTimeout
				nt := *tr
				nt.Attempt++
				nt.ReadyAt = detect + p.RetryBackoff(tr.Attempt)
				nt.IssueDone, nt.Arrival, nt.RecvComplete = 0, 0, 0
				nt.Dropped, nt.Nacked = false, false
				if owner == nil {
					owner = make([]int, len(transfers))
				}
				transfers[lost], owner[lost] = &nt, i
				lost++
				if c.met != nil {
					c.met.retransmits.Inc()
				}
				continue
			}
			m.IssueDone = tr.IssueDone
			// Two-sided completion also waits for the posted receive.
			arr := tr.Arrival
			if m.RecvReadyAt > arr {
				arr = m.RecvReadyAt
			}
			m.RecvComplete = arr + (tr.RecvComplete - tr.Arrival)
			if m.RecvComplete > last {
				last = m.RecvComplete
			}
			bytes += float64(tr.Bytes)
		}
		transfers = transfers[:lost]
	}
	if c.met != nil {
		c.met.p2pRounds.Inc()
		c.met.p2pMsgs.Add(int64(len(msgs)))
		c.met.p2pBytes.Add(int64(bytes))
	}
	if c.Fab.Rec.Enabled() {
		c.Fab.Rec.Round(trace.RoundEvent{
			Kind: "mpi-p2p", Count: len(msgs), Bytes: int(bytes),
			Start: c.Fab.RecBase, End: c.Fab.RecBase + last,
		})
	}
}

// ReduceOp enumerates supported allreduce operations.
type ReduceOp int

const (
	// OpSum adds contributions element-wise.
	OpSum ReduceOp = iota
	// OpMax takes the element-wise maximum.
	OpMax
	// OpLor is a logical OR (any non-zero wins), the operation of the
	// neighbor-list "check yes" dangerous-build flag.
	OpLor
)

// Allreduce combines contrib (one slice per rank, equal lengths) with op and
// returns the reduced vector plus the modeled completion time relative to
// the latest entry time. Every rank observes the same result, as MPI
// guarantees.
func (c *Comm) Allreduce(contrib [][]float64, op ReduceOp) ([]float64, float64, error) {
	n := len(contrib)
	if n == 0 {
		return nil, 0, fmt.Errorf("mpi: allreduce with no ranks")
	}
	width := len(contrib[0])
	for r, s := range contrib {
		if len(s) != width {
			return nil, 0, fmt.Errorf("mpi: allreduce rank %d width %d != %d", r, len(s), width)
		}
	}
	out := make([]float64, width)
	copy(out, contrib[0])
	for r := 1; r < n; r++ {
		for i, v := range contrib[r] {
			switch op {
			case OpSum:
				out[i] += v
			case OpMax:
				if v > out[i] {
					out[i] = v
				}
			case OpLor:
				if v != 0 {
					out[i] = 1
				}
			}
		}
	}
	t := c.Fab.AllreduceTime(n, units.Bytes(8*width), tofu.IfaceMPI)
	if c.met != nil {
		c.met.allreduces.Inc()
		c.met.allreduceBytes.Add(int64(8 * width))
		c.met.allreduceSeconds.Observe(t)
	}
	if c.Rec.Enabled() {
		var now float64
		if c.Now != nil {
			now = c.Now()
		}
		c.Rec.Round(trace.RoundEvent{
			Kind: "allreduce", Count: n, Bytes: 8 * width,
			Start: now, End: now + t,
		})
	}
	return out, t, nil
}

// AllreduceTimeAtScale returns the modeled allreduce time charged for a
// machine of nranks ranks (used when a representative tile stands in for
// the full allocation).
func (c *Comm) AllreduceTimeAtScale(nranks int, bytes units.Bytes) float64 {
	return c.Fab.AllreduceTime(nranks, bytes, tofu.IfaceMPI)
}

// SortMessages orders messages deterministically (by src, then dst, then
// tag) so that rounds assembled from map iteration stay reproducible.
func SortMessages(msgs []*Message) {
	sort.SliceStable(msgs, func(i, j int) bool {
		a, b := msgs[i], msgs[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Tag < b.Tag
	})
}
