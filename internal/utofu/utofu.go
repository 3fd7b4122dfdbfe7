// Package utofu implements a functional model of the uTofu programming
// interface: the low-level, one-sided communication API of the Fugaku TofuD
// interconnect that the paper's optimized code paths use instead of MPI.
//
// The API mirrors the real interface's concepts:
//
//   - a VCQ (virtual control queue) is created by a rank and bound to one CQ
//     (control queue) of one TNI; a TNI has 9 CQs and by default each rank
//     may hold one CQ per TNI (section 3.3, Fig. 7);
//   - memory must be registered (STADD) before it can be the target of RDMA;
//     registration traps into the kernel and is expensive, motivating the
//     paper's pre-registered maximum-size buffers (section 3.4);
//   - Put writes local bytes directly into a remote registered region at a
//     given offset, optionally piggybacking an 8-byte immediate value in the
//     descriptor (used to carry the ghost-atom recv_ptr offset).
//
// Puts are collected into rounds and executed through the tofu fabric, which
// provides the virtual-time model; payload bytes are really copied into the
// destination regions so the MD simulation stays functionally correct.
package utofu

import (
	"fmt"

	"tofumd/internal/metrics"
	"tofumd/internal/tofu"
	"tofumd/internal/trace"
	"tofumd/internal/units"
)

// System tracks VCQs and registered memory for every rank on one fabric.
type System struct {
	Fab *tofu.Fabric

	// cqUsed[node][tni][cq] marks allocated control queues.
	cqUsed [][][]bool
	// rankCQOnTNI[rank][tni] counts CQs the rank holds on that TNI.
	rankCQOnTNI [][]int

	// regions is the registration table indexed by STADD. STADDs are
	// issued from 1 in sequence, so entry 0 is never used; a deregistered
	// STADD's entry is nil and its number is not reissued.
	regions    []*MemRegion
	nextVCQTag int

	// met caches metric handles (see SetMetrics); its counters are nil, and
	// their methods no-ops, when metrics are off.
	met utofuMetrics
}

// utofuMetrics caches the uTofu layer's metric handles.
type utofuMetrics struct {
	puts, putBytes, piggybacks *metrics.Counter
	registrations              *metrics.Counter
	// Retransmissions issued and puts abandoned after exhausting
	// MaxRetransmits (fault injection only; zero otherwise).
	putRetransmits, putFailures *metrics.Counter
}

// SetMetrics enables (or, with a nil registry, disables) metric collection.
func (s *System) SetMetrics(reg *metrics.Registry) {
	if !reg.Enabled() {
		s.met = utofuMetrics{}
		return
	}
	s.met = utofuMetrics{
		puts:          reg.Counter("utofu_ops", "put"),
		putBytes:      reg.Counter("utofu_bytes", "put"),
		piggybacks:    reg.Counter("utofu_ops", "piggyback"),
		registrations: reg.Counter("utofu_ops", "register"),

		putRetransmits: reg.Counter("utofu_retransmits", "put"),
		putFailures:    reg.Counter("utofu_failures", "put"),
	}
}

// VCQ is a virtual control queue bound to one CQ of one TNI on the rank's
// node. Commands issued through the same VCQ by one thread serialize with
// the uTofu injection gap.
type VCQ struct {
	Rank int
	TNI  int
	CQ   int
	// Tag is a system-unique VCQ identity used for contention accounting.
	Tag int
	sys *System
	// freed marks a VCQ whose CQ has been released; issuing through it (or
	// freeing it again) is a caller bug.
	freed bool
}

// MemRegion is a registered (STADD'd) memory region owned by a rank.
type MemRegion struct {
	Rank  int
	STADD uint64
	Buf   []byte
}

// NewSystem creates the uTofu bookkeeping layer over a fabric.
func NewSystem(fab *tofu.Fabric) *System {
	nodes := fab.Map.Torus.Nodes()
	ranks := fab.Map.Ranks()
	p := fab.Params
	cq := make([][][]bool, nodes)
	for n := range cq {
		cq[n] = make([][]bool, p.TNIsPerNode)
		for t := range cq[n] {
			cq[n][t] = make([]bool, p.CQsPerTNI)
		}
	}
	rc := make([][]int, ranks)
	for r := range rc {
		rc[r] = make([]int, p.TNIsPerNode)
	}
	return &System{
		Fab:         fab,
		cqUsed:      cq,
		rankCQOnTNI: rc,
		regions:     []*MemRegion{nil},
	}
}

// CreateVCQ allocates a CQ on the given TNI of the rank's node and binds a
// VCQ to it. It enforces the hardware limits: 9 CQs per TNI, and at most one
// CQ per (rank, TNI) — the default resource policy the paper works within
// (section 3.3: "each MPI rank can only allocate one CQ on each TNI by
// default", so 4 ranks x 6 TNIs = 24 CQs per node).
func (s *System) CreateVCQ(rank, tni int) (*VCQ, error) {
	p := s.Fab.Params
	if tni < 0 || tni >= p.TNIsPerNode {
		return nil, fmt.Errorf("utofu: TNI %d out of range [0,%d)", tni, p.TNIsPerNode)
	}
	if s.rankCQOnTNI[rank][tni] >= 1 {
		return nil, fmt.Errorf("utofu: rank %d already holds a CQ on TNI %d", rank, tni)
	}
	node, _ := s.Fab.Map.NodeOf(rank)
	cqs := s.cqUsed[node][tni]
	for cq := range cqs {
		if !cqs[cq] {
			cqs[cq] = true
			s.rankCQOnTNI[rank][tni]++
			s.nextVCQTag++
			return &VCQ{Rank: rank, TNI: tni, CQ: cq, Tag: s.nextVCQTag, sys: s}, nil
		}
	}
	return nil, fmt.Errorf("utofu: no free CQ on node %d TNI %d", node, tni)
}

// FreeVCQ releases the VCQ's control queue, making the (node, TNI, CQ) slot
// fully reusable by a later CreateVCQ. Rounds are synchronous — ExecuteRound
// returns only after every completion is harvested — so there are never
// pending TCQ/MRQ entries to drain at free time. Freeing a VCQ twice, or one
// belonging to another system, previously corrupted the CQ accounting
// (rankCQOnTNI went negative, letting a rank exceed its one-CQ-per-TNI
// limit); both are now errors.
func (s *System) FreeVCQ(v *VCQ) error {
	if v == nil || v.sys != s {
		return fmt.Errorf("utofu: FreeVCQ of a VCQ not created by this system")
	}
	if v.freed {
		return fmt.Errorf("utofu: double free of VCQ tag %d (rank %d TNI %d CQ %d)",
			v.Tag, v.Rank, v.TNI, v.CQ)
	}
	node, _ := s.Fab.Map.NodeOf(v.Rank)
	if !s.cqUsed[node][v.TNI][v.CQ] || s.rankCQOnTNI[v.Rank][v.TNI] <= 0 {
		return fmt.Errorf("utofu: FreeVCQ of unallocated CQ (node %d TNI %d CQ %d)",
			node, v.TNI, v.CQ)
	}
	v.freed = true
	s.cqUsed[node][v.TNI][v.CQ] = false
	s.rankCQOnTNI[v.Rank][v.TNI]--
	return nil
}

// Register STADDs a buffer for RDMA access and returns the region plus the
// virtual-time cost of the registration (a kernel trap). The optimized code
// calls this once per buffer during setup; a naive implementation pays it on
// every buffer growth.
func (s *System) Register(rank int, buf []byte) (*MemRegion, float64) {
	s.met.registrations.Inc()
	r := &MemRegion{Rank: rank, STADD: uint64(len(s.regions)), Buf: buf}
	s.regions = append(s.regions, r)
	return r, s.Fab.Params.RegistrationCost
}

// Deregister removes a region; its STADD is not reissued.
func (s *System) Deregister(r *MemRegion) {
	if r.STADD < uint64(len(s.regions)) {
		s.regions[r.STADD] = nil
	}
}

// Lookup resolves a STADD to its region; 0, a STADD never issued and a
// deregistered one all report false.
func (s *System) Lookup(stadd uint64) (*MemRegion, bool) {
	if stadd >= uint64(len(s.regions)) {
		return nil, false
	}
	r := s.regions[stadd]
	return r, r != nil
}

// Put is one queued one-sided RDMA put.
type Put struct {
	VCQ *VCQ
	// Thread is the issuing CPU thread within the rank.
	Thread int
	// DstThread is the receiver-side thread that polls the target VCQ's
	// receive queue; completions within one context serialize.
	DstThread int
	// Dst addresses the remote registered region.
	DstSTADD uint64
	DstOff   int
	// Src is the payload; it is copied into the destination at delivery.
	// It may alias its destination, Buf[DstOff:], when the sender packed
	// in place (see ExecuteRound).
	Src []byte
	// Piggyback optionally carries an 8-byte immediate delivered with the
	// completion (0 means none is read; use HasPiggyback to distinguish).
	Piggyback    uint64
	HasPiggyback bool
	// ReadyAt is the sender virtual time the payload is packed.
	ReadyAt float64

	// Timing outputs, filled by ExecuteRound.
	IssueDone    float64
	Arrival      float64
	RecvComplete float64
	// Attempts counts transmissions performed (1 for a clean put; more when
	// fault injection forced retransmissions).
	Attempts int
	// Failed reports the put was abandoned after MaxRetransmits; FailedAt is
	// the sender virtual time the final loss was detected. The payload was
	// NOT delivered — the caller must recover (e.g. fall back to MPI).
	Failed   bool
	FailedAt float64

	// dst is the region DstSTADD resolved to when ExecuteRound validated the
	// put, kept for the delivery.
	dst *MemRegion
}

// retryPlan decides a failed transfer's fate: either schedules a
// retransmission transfer for the next wave (returned non-nil) or reports
// the operation permanently failed at detect time. Loss is detected by a
// completion timeout after the expected wire time; attempt n backs off
// Params.RetryBackoff before re-injecting. Re-execution is idempotent: the
// retransmitted put lands at the same STADD and offset the lost one
// targeted (section 3.4).
func (s *System) retryPlan(tr *tofu.Transfer) (next *tofu.Transfer, detect float64) {
	p := s.Fab.Params
	detect = tr.IssueDone + s.Fab.WireTime(units.Bytes(tr.Bytes)) + p.CompletionTimeout
	if tr.Attempt >= p.MaxRetransmits {
		return nil, detect
	}
	nt := *tr
	nt.Attempt++
	nt.ReadyAt = detect + p.RetryBackoff(tr.Attempt)
	nt.IssueDone, nt.Arrival, nt.RecvComplete = 0, 0, 0
	nt.Dropped, nt.Nacked = false, false
	return &nt, detect
}

// checkVCQ validates the VCQ handle put i issues through.
func (s *System) checkVCQ(v *VCQ, i int) error {
	if v == nil || v.sys != s {
		return fmt.Errorf("utofu: put %d uses a VCQ not created by this system", i)
	}
	if v.freed {
		return fmt.Errorf("utofu: put %d uses freed VCQ tag %d", i, v.Tag)
	}
	return nil
}

// runWaves executes the transfers of one put batch as a fabric round and,
// under fault injection, re-runs the lost ones in follow-up waves with capped
// exponential backoff. transfers[i] belongs to put i. Wave 0 is the caller's
// slice itself; a later wave is the retransmit records compacted to its
// front, owner mapping each back to its put. settle is called once per put,
// when its fate is known: with the delivering transfer, or with the last
// failed one and the time the final loss was detected.
func (s *System) runWaves(transfers []*tofu.Transfer, settle func(i int, tr *tofu.Transfer, failedAt float64)) error {
	var owner []int
	kind := "utofu-put"
	for wave := 0; len(transfers) > 0; wave++ {
		if err := s.Fab.RunRound(transfers, tofu.IfaceUTofu); err != nil {
			return err
		}
		if wave > 0 {
			kind = "utofu-retransmit"
		}
		s.recordRound(kind, transfers)
		lost := 0
		for j, tr := range transfers {
			i := j
			if wave > 0 {
				i = owner[j]
			}
			if !tr.Failed() {
				settle(i, tr, 0)
				continue
			}
			next, detect := s.retryPlan(tr)
			if next == nil {
				settle(i, tr, detect)
				continue
			}
			if owner == nil {
				owner = make([]int, len(transfers))
			}
			transfers[lost], owner[lost] = next, i
			lost++
			s.met.putRetransmits.Inc()
		}
		transfers = transfers[:lost]
	}
	return nil
}

// recordRound emits one RoundEvent covering the batch just executed.
func (s *System) recordRound(kind string, transfers []*tofu.Transfer) {
	if !s.Fab.Rec.Enabled() {
		return
	}
	var last float64
	bytes := 0
	for _, tr := range transfers {
		if tr.RecvComplete > last {
			last = tr.RecvComplete
		}
		bytes += tr.Bytes
	}
	s.Fab.Rec.Round(trace.RoundEvent{
		Kind: kind, Count: len(transfers), Bytes: bytes,
		Start: s.Fab.RecBase, End: s.Fab.RecBase + last,
	})
}

// ExecuteRound runs a batch of puts as one fabric round: all timing effects
// (injection gaps, TNI engine serialization, hop latency) are computed, and
// payloads are copied into their destination regions. Puts issued by the
// same (rank, thread) pair serialize in slice order.
//
// Under fault injection, puts whose completion never arrives are detected by
// timeout and retransmitted in follow-up waves with capped exponential
// backoff. The payload is copied only on the delivering attempt, so a lost
// put leaves no partial state. A put that exhausts MaxRetransmits reports
// Failed/FailedAt; its destination region is untouched.
//
// A put whose Src aliases its destination (same first byte, Src =
// Buf[DstOff:DstOff+len(Src)]) is the contract for senders that pack
// straight into the receiver's registered memory: it is timed, counted and
// reported exactly like a put of a separate buffer of the same size, and
// its delivery writes nothing (Deliver), so the round may run while other
// goroutines read the region. Such a sender has written the region before
// the round, so "untouched" then means the round itself wrote nothing;
// recovering a failed put is the caller's, as ever.
func (s *System) ExecuteRound(puts []*Put) error {
	if len(puts) == 0 {
		return nil
	}
	transfers := s.Fab.Transfers(len(puts))
	for i, p := range puts {
		if err := s.checkVCQ(p.VCQ, i); err != nil {
			return err
		}
		dst, ok := s.Lookup(p.DstSTADD)
		if !ok {
			return fmt.Errorf("utofu: put %d targets unregistered STADD %d", i, p.DstSTADD)
		}
		if p.DstOff < 0 || p.DstOff+len(p.Src) > len(dst.Buf) {
			return fmt.Errorf("utofu: put %d writes [%d,%d) outside region of %d bytes",
				i, p.DstOff, p.DstOff+len(p.Src), len(dst.Buf))
		}
		bytes := len(p.Src)
		if p.HasPiggyback && bytes == 0 {
			bytes = 8 // descriptor-only message
		}
		p.Attempts, p.Failed, p.FailedAt, p.dst = 0, false, 0, dst
		// Transfers returns zeroed records: fill only the put's fields.
		tr := transfers[i]
		tr.Src, tr.Dst, tr.TNI, tr.VCQ = p.VCQ.Rank, dst.Rank, p.VCQ.TNI, p.VCQ.Tag
		tr.Thread, tr.DstThread, tr.Bytes, tr.ReadyAt = p.Thread, p.DstThread, bytes, p.ReadyAt
	}
	// Delivered puts, their bytes and piggybacks are counted here and
	// added to the metrics once per round.
	var delivered, putBytes, piggybacks int64
	err := s.runWaves(transfers, func(i int, tr *tofu.Transfer, failedAt float64) {
		p := puts[i]
		p.Attempts = tr.Attempt + 1
		if tr.Failed() {
			p.Failed, p.FailedAt = true, failedAt
			s.met.putFailures.Inc()
			return
		}
		Deliver(p.dst.Buf[p.DstOff:], p.Src)
		p.IssueDone = tr.IssueDone
		p.Arrival = tr.Arrival
		p.RecvComplete = tr.RecvComplete
		delivered++
		putBytes += int64(tr.Bytes)
		if p.HasPiggyback {
			piggybacks++
		}
	})
	s.met.puts.Add(delivered)
	s.met.putBytes.Add(putBytes)
	s.met.piggybacks.Add(piggybacks)
	if err != nil {
		return fmt.Errorf("utofu: put round: %w", err)
	}
	return nil
}

// Deliver copies src to the front of dst, unless src already starts at
// dst's first byte: then its bytes are dst's and Deliver writes nothing. A
// copy of bytes onto themselves changes nothing, but it is still a write,
// one the race detector reports against any concurrent reader of dst.
func Deliver(dst, src []byte) {
	if len(src) == 0 || &dst[0] == &src[0] {
		return
	}
	copy(dst, src)
}
