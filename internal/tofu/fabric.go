package tofu

import (
	"cmp"
	"fmt"
	"slices"

	"tofumd/internal/des"
	"tofumd/internal/faultinject"
	"tofumd/internal/metrics"
	"tofumd/internal/slab"
	"tofumd/internal/topo"
	"tofumd/internal/trace"
	"tofumd/internal/units"
	"tofumd/internal/vec"
)

// Transfer is one message of a communication round. The caller fills the
// routing and sizing fields; RunRound fills the timing outputs.
type Transfer struct {
	// Src and Dst are rank ids in the fabric's rank map.
	Src, Dst int
	// TNI is the index of the Tofu network interface on the source node
	// that transmits the message.
	TNI int
	// VCQ identifies the virtual control queue issuing the command; used to
	// charge the VCQ-switch overhead. Typically (rank<<3)|threadLocalCQ.
	VCQ int
	// Thread identifies the issuing CPU thread within the source rank;
	// injections by the same thread serialize with the injection gap.
	Thread int
	// DstThread identifies the receiver-side polling context (the thread
	// that owns the target VCQ's receive queue). Completions handled by
	// the same context serialize with the receive overhead — with one
	// polling thread, 124 incoming messages cost 124 serial completions,
	// the effect that sinks p2p in the paper's Fig. 15.
	DstThread int
	// Bytes is the payload size on the wire.
	Bytes int
	// ReadyAt is the sender virtual time at which the message is packed and
	// ready to inject.
	ReadyAt float64
	// TwoStep marks the MPI unknown-length protocol (a length message
	// followed by the payload, section 3.5.1); it costs an extra injection
	// gap at the sender and an extra match at the receiver.
	TwoStep bool
	// Attempt counts prior transmissions of the same logical message (0 for
	// the first try); carried into the trace so retransmissions are visible.
	Attempt int

	// IssueDone is when the issuing thread's CPU is free again.
	IssueDone float64
	// Arrival is when the last payload byte is visible in receiver memory.
	Arrival float64
	// RecvComplete is Arrival plus the receiver-side software overhead
	// (completion-queue poll for uTofu, tag matching and copy for MPI). For
	// two-sided transports the receiver must also be ready; the transport
	// layer maxes this with its own clock.
	RecvComplete float64
	// Dropped reports the payload was lost in the torus (fault injection):
	// no delivery, Arrival and RecvComplete stay 0.
	Dropped bool
	// Nacked reports the receiving TNI rejected the delivery with an
	// MRQ-overflow NACK: Arrival is when the rejected delivery reached the
	// receiver, RecvComplete stays 0.
	Nacked bool
}

// Failed reports whether the transfer delivered nothing usable and must be
// retransmitted by the layer above.
func (tr *Transfer) Failed() bool { return tr.Dropped || tr.Nacked }

// Fabric simulates one TofuD allocation: the torus, its nodes' TNIs and the
// timing of message rounds. A Fabric is not safe for concurrent rounds; the
// bulk-synchronous simulation runs rounds one at a time.
//
// Every round drains one des.Queue on the caller: the issue and transmit
// events of every rank's threads, in (time, seq) order. Receive completions,
// the one cross-node effect, are applied after the queue drains, in the
// order their events would have run.
type Fabric struct {
	Params Params
	Map    *topo.RankMap

	// Rec, when non-nil, receives one MessageEvent per transfer. RecBase
	// offsets the fabric's round-relative times into the caller's absolute
	// clock; callers running rounds at absolute time t set RecBase = t
	// before RunRound. A nil recorder costs one pointer check per message.
	Rec     *trace.Recorder
	RecBase float64

	// Faults, when non-nil, injects deterministic faults (drops, NACKs,
	// stalls, link degradation) into the transfer path. A nil model is the
	// fault-free fabric.
	Faults *faultinject.Model

	// met caches metric handles (see SetMetrics); nil when metrics are off.
	met *fabricMetrics

	// q is the event queue every round drains. The fabric schedules only
	// tagged events on it, executed by handle.
	q *des.Queue
	// nodeOfRank[r] is the node hosting rank r and nodeCoord[n] the torus
	// coordinate of node n: the rank map's answers, tabulated once.
	nodeOfRank []int32
	nodeCoord  []vec.I3

	// tniFree[node*TNIsPerNode+tni] is the time the TNI engine frees up;
	// tniLastVCQ tracks the last VCQ served per TNI (unused slot = -1).
	tniFree    []float64
	tniLastVCQ []int

	// slab backs the records Transfers hands out.
	slab slab.Slab[Transfer]

	// The fields below are the state of the round in flight, rebuilt by every
	// RunRound in storage that is kept between rounds. A (rank, thread) pair
	// is the slot rank*threads+thread.
	round               []*Transfer
	iface               Interface
	gap, sendOv, recvOv float64
	// threads is one more than the round's largest Thread or DstThread.
	threads int
	// order lists transfer indices grouped by issuing slot, each group in the
	// caller's order: slot k's FIFO is order[fifo[k]:fifo[k+1]] and head[k]
	// is the position of its next transfer to issue.
	order []int32
	fifo  []int32
	head  []int32
	// sent counts the deliveries the round has transmitted so far, and
	// sentKey[idx] is transfer idx's place in that sequence: the seq tail of
	// the completion's ordering key (see transmit).
	sent    uint64
	sentKey []uint64
	// recvs holds the deliveries grouped by receive context (the completion
	// sweep's counting sort); recvAt[k] is where slot k's group starts while
	// they are placed, and where it ends after.
	recvAt []int32
	recvs  []completion

	// msgEvs/msgSet buffer one MessageEvent per transfer index during a
	// round (only while Rec is enabled, which tracing records). The issue and
	// transmit events of a transfer fill its slot; the completion sweep or
	// the failure path marks it set. The buffered events are flushed to Rec
	// in transfer order after the round, making trace output independent of
	// event order.
	tracing bool
	msgEvs  []trace.MessageEvent
	msgSet  []bool
}

// completion is one delivery in the completion sweep, carrying the key its
// receive event would have been ordered by: (Arrival, IssueDone, seq), with
// IssueDone the time of the event that transmitted it and key the round's
// transmit ordinal that stands for seq.
type completion struct {
	arrival, issueDone float64
	key                uint64
	idx                int32
}

// The fabric's two event kinds, packed into a des tag as index<<1|kind:
// evIssue carries a slot whose head is not packed yet, evTransmit a
// transfer index.
const (
	evIssue uint32 = iota
	evTransmit
)

// maxTagIndex bounds what fits beside the kind in a 32-bit tag.
const maxTagIndex = 1 << 31

// fabricMetrics caches the fabric's metric handles so no message pays a
// registry lookup; the per-transfer families are tallied through the round
// and published once at its end. Per-TNI families are indexed by
// TNI number and aggregate across nodes; distributions are labeled by the
// software interface ("utofu"/"mpi").
type fabricMetrics struct {
	msgs, bytes, switches []*metrics.Counter    // per TNI index
	stall                 [2]*metrics.Histogram // per Interface
	hops                  [2]*metrics.Histogram // per Interface
	// Injected-fault counters (fault injection only; zero otherwise).
	drops, nacks, faultStalls *metrics.Counter
	// abandoned counts events a round left undrained (see RunRound); any
	// nonzero value is a fabric bug surfaced instead of silently dropped.
	abandoned *metrics.Counter
	// tally batches the per-transfer updates of msgs, bytes, switches and
	// hops through a round (see publishTally).
	tally tally
}

// tally is a round's per-transfer metrics: plain adds in place of an atomic
// add or a histogram lock per transfer.
type tally struct {
	msgs, bytes, switches []int64  // per TNI index
	hops                  []uint64 // observations per hop count
}

// SetMetrics enables (or, with a nil registry, disables) metric collection.
// Metrics only observe the computed virtual times: timing outputs are
// bit-identical with metrics on or off. Counters are atomic and histograms
// mutex-protected, so the registry may be read while a round runs.
func (f *Fabric) SetMetrics(reg *metrics.Registry) {
	if !reg.Enabled() {
		f.met = nil
		return
	}
	m := &fabricMetrics{}
	for tni := 0; tni < f.Params.TNIsPerNode; tni++ {
		label := fmt.Sprintf("tni%d", tni)
		m.msgs = append(m.msgs, reg.Counter("fabric_tni_msgs", label))
		m.bytes = append(m.bytes, reg.Counter("fabric_tni_bytes", label))
		m.switches = append(m.switches, reg.Counter("fabric_tni_vcq_switches", label))
	}
	hopBuckets := metrics.LinearBuckets(0, 1, 33)
	for _, iface := range []Interface{IfaceUTofu, IfaceMPI} {
		m.stall[iface] = reg.Histogram("fabric_inject_stall_seconds", iface.String())
		m.hops[iface] = reg.HistogramWith("fabric_msg_hops", iface.String(), hopBuckets)
	}
	m.drops = reg.Counter("fabric_faults", "drops")
	m.nacks = reg.Counter("fabric_faults", "nacks")
	m.faultStalls = reg.Counter("fabric_faults", "stalls")
	m.abandoned = reg.Counter("des_abandoned_events", "total")
	n := f.Params.TNIsPerNode
	m.tally = tally{msgs: make([]int64, n), bytes: make([]int64, n), switches: make([]int64, n)}
	f.met = m
}

// publishTally adds the round's tally to the registry and zeroes it.
// Counter sums do not depend on the order of the adds, and the hop
// histogram only sees integers, whose float sums are exact, so the registry
// ends where one update per transfer would have left it.
func (f *Fabric) publishTally() {
	if f.met == nil {
		return
	}
	m := f.met
	t := &m.tally
	for tni := range t.msgs {
		if t.msgs[tni] != 0 {
			m.msgs[tni].Add(t.msgs[tni])
			m.bytes[tni].Add(t.bytes[tni])
			t.msgs[tni], t.bytes[tni] = 0, 0
		}
		if t.switches[tni] != 0 {
			m.switches[tni].Add(t.switches[tni])
			t.switches[tni] = 0
		}
	}
	for h, n := range t.hops {
		if n != 0 {
			m.hops[f.iface].ObserveN(float64(h), n)
			t.hops[h] = 0
		}
	}
}

// NewFabric builds a fabric over the rank map with the given parameters.
func NewFabric(m *topo.RankMap, p Params) *Fabric {
	nodes := m.Torus.Nodes()
	f := &Fabric{
		Params:     p,
		Map:        m,
		q:          des.NewQueue(),
		nodeOfRank: make([]int32, m.Ranks()),
		nodeCoord:  make([]vec.I3, nodes),
		tniFree:    make([]float64, nodes*p.TNIsPerNode),
		tniLastVCQ: make([]int, nodes*p.TNIsPerNode),
	}
	f.q.SetHandler(f.handle)
	for r := range f.nodeOfRank {
		node, _ := m.NodeOf(r)
		f.nodeOfRank[r] = int32(node)
	}
	for n := range f.nodeCoord {
		f.nodeCoord[n] = m.Torus.CoordOf(n)
	}
	return f
}

// SetParallel is inert: it changes nothing and returns nil. Rounds drain one
// queue whatever lps is; the method is kept only because the frozen
// benchmark harness compiles against it.
func (f *Fabric) SetParallel(lps int) error { return nil }

// ParallelStats snapshots the queue's cumulative event count. ok is always
// true; the two-value signature is what the frozen benchmark harness
// compiles against. Safe to call while a round is in flight.
func (f *Fabric) ParallelStats() (des.ParallelStats, bool) {
	return f.q.Stats(), true
}

// Transfers returns n zeroed transfer records for the caller to fill and
// hand to RunRound. They live in a slab the fabric owns and are valid until
// the next call to Transfers: the same one-round-at-a-time contract as
// RunRound itself. A caller that replaces an entry of the returned slice (a
// retransmit follow-up) changes nothing for the next call, which points
// every entry back at the slab.
func (f *Fabric) Transfers(n int) []*Transfer { return f.slab.Take(n) }

// hops returns the torus distance between two nodes.
func (f *Fabric) hops(srcNode, dstNode int32) int {
	if srcNode == dstNode {
		return 0
	}
	return f.Map.Torus.Hops(f.nodeCoord[srcNode], f.nodeCoord[dstNode])
}

// packTag packs an event kind and its slot or transfer index.
func packTag(idx int, kind uint32) uint32 { return uint32(idx)<<1 | kind }

// schedule puts a tagged event on the queue. Every time the fabric computes
// is monotone by construction (costs are non-negative), so a past time is an
// arithmetic bug worth crashing on.
func (f *Fabric) schedule(t float64, tag uint32) {
	if err := f.q.ScheduleTagAt(t, tag); err != nil {
		panic("tofu: " + err.Error())
	}
}

// handle executes one of the fabric's events; it is the queue's tag
// handler.
//
// A transmit event also runs its thread's next issue. Scheduled apart, the
// two would share time with consecutive seq, so no event could sort between
// them in the queue's key (time, seq), and transmit schedules nothing:
// fused, they keep that order at one event per transfer instead of two.
func (f *Fabric) handle(tag uint32) {
	idx := int(tag >> 1)
	if tag&1 == evIssue {
		f.issue(idx)
		return
	}
	f.transmit(idx)
	tr := f.round[idx]
	f.issue(tr.Src*f.threads + tr.Thread)
}

// countAbandoned records events stranded in the engine.
func (f *Fabric) countAbandoned(n int) {
	if n > 0 && f.met != nil {
		f.met.abandoned.Add(int64(n))
	}
}

// flushTrace emits the buffered events in transfer order.
func (f *Fabric) flushTrace() {
	if !f.tracing {
		return
	}
	for i := range f.msgEvs {
		if f.msgSet[i] {
			f.Rec.Message(f.msgEvs[i])
		}
	}
}

// WireTime returns the bandwidth serialization time of a message.
func (f *Fabric) WireTime(bytes units.Bytes) float64 {
	return float64(bytes) / f.Params.LinkBandwidth
}

// Latency returns the end-to-end network latency for a given hop count,
// excluding bandwidth serialization and software overheads.
func (f *Fabric) Latency(hops int) float64 {
	return f.Params.BaseLatency + float64(hops)*f.Params.HopLatency
}

// PutLatency returns the full one-sided put latency for a small message over
// the given hop count: software issue + wire + network. For 1 hop and 8
// bytes this is the 0.49us figure of the TofuD paper.
func (f *Fabric) PutLatency(hops int, bytes units.Bytes) float64 {
	return f.Params.UTofuPutOverhead + f.WireTime(bytes) + f.Latency(hops)
}

// zeroed returns s with length n and every element zero, reusing its
// backing array when that is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// RunRound simulates one communication round: all transfers are injected
// respecting per-thread injection gaps, serialized on their TNI engines, and
// routed across the torus. Timing outputs are written into the transfers.
// Virtual time within the round starts at 0; ReadyAt values are relative to
// the round start. The round is deterministic for a given transfer slice.
// In steady state — no round larger than an earlier one,
// metrics and Rec off — a round allocates nothing.
//
// RunRound returns an error when the event engine does not drain: events
// stranded from a previous round (which Reset would silently discard — a
// lost retransmit timer or in-flight put vanishing without trace), or a
// round exceeding its event budget (a scheduling cycle). Both increment the
// des_abandoned_events counter; the transfers' timing outputs are not
// trustworthy after an error.
func (f *Fabric) RunRound(transfers []*Transfer, iface Interface) error {
	if len(transfers) == 0 {
		return nil
	}
	p := &f.Params
	if n := f.q.Pending(); n != 0 {
		f.countAbandoned(n)
		return fmt.Errorf("tofu: %d events stranded from a previous round at round start (%d abandoned)", n, n)
	}
	f.q.Reset()
	for i := range f.tniFree {
		f.tniFree[i] = 0
		f.tniLastVCQ[i] = -1
	}
	// Each RunRound is one fault round: retransmission waves re-run the
	// round and therefore draw from fresh (seed, round, link) streams.
	f.Faults.BeginRound()

	threads := 1
	for _, tr := range transfers {
		if tr.TNI < 0 || tr.TNI >= p.TNIsPerNode {
			panic(fmt.Sprintf("tofu: transfer TNI %d out of range", tr.TNI))
		}
		if tr.Thread < 0 || tr.DstThread < 0 {
			panic(fmt.Sprintf("tofu: transfer thread %d / receive thread %d out of range", tr.Thread, tr.DstThread))
		}
		tr.Dropped, tr.Nacked = false, false
		threads = max(threads, tr.Thread+1, tr.DstThread+1)
	}
	slots := len(f.nodeOfRank) * threads
	if slots >= maxTagIndex || len(transfers) >= maxTagIndex {
		panic(fmt.Sprintf("tofu: round of %d transfers over %d thread slots exceeds the event tag range", len(transfers), slots))
	}
	f.round, f.iface, f.threads = transfers, iface, threads
	f.gap, f.sendOv, f.recvOv = p.InjectGap(iface), p.SendOverhead(iface), p.RecvOverhead(iface)
	f.sent = 0
	f.sentKey = zeroed(f.sentKey, len(transfers))
	f.tracing = f.Rec.Enabled()
	if f.tracing {
		f.msgEvs = zeroed(f.msgEvs, len(transfers))
		f.msgSet = zeroed(f.msgSet, len(transfers))
	}

	// Build the per-slot FIFOs with a stable counting sort, preserving the
	// caller's order within a slot: the order the comm plan issues messages.
	f.fifo = zeroed(f.fifo, slots+1)
	f.head = zeroed(f.head, slots)
	f.order = zeroed(f.order, len(transfers))
	for _, tr := range transfers {
		f.fifo[tr.Src*threads+tr.Thread+1]++
	}
	for k := 0; k < slots; k++ {
		f.fifo[k+1] += f.fifo[k]
	}
	copy(f.head, f.fifo)
	for i, tr := range transfers {
		k := tr.Src*threads + tr.Thread
		f.order[f.head[k]] = int32(i)
		f.head[k]++
	}
	copy(f.head, f.fifo)

	// Start every thread inline, in ascending (rank, thread). As events the
	// seeds would all sort first — key (0, seq) with everything they
	// schedule later in seq — so calling issue directly runs them in the
	// same order.
	for k := 0; k < slots; k++ {
		f.issue(k)
	}
	// Each transfer is exactly one transmit event (which also issues the
	// thread's next command) plus at most one ready-wait, after which its
	// ReadyAt has passed: a correct round runs at most 2*len(transfers)
	// events, so reaching this budget means a scheduling cycle and stops
	// what would otherwise be a livelock.
	budget := 2*len(transfers) + 64
	_, runErr := f.q.RunBudget(budget)
	if runErr == nil {
		f.complete(slots)
	}
	f.flushTrace()
	f.publishTally()
	f.round = nil
	if runErr != nil {
		n := f.q.Pending()
		f.countAbandoned(n)
		return fmt.Errorf("tofu: round did not drain (%d events abandoned): %w", n, runErr)
	}
	if n := f.q.Pending(); n != 0 {
		f.countAbandoned(n)
		return fmt.Errorf("tofu: %d events abandoned at end of round", n)
	}
	return nil
}

// issue runs slot k's issuing thread: it charges the software cost of the
// FIFO's head and hands the command to the TNI engine, whose transmit event
// issues the thread's next one. A head that is not packed yet stays in the
// FIFO while the thread idles until its ReadyAt (a ready-wait event).
func (f *Fabric) issue(k int) {
	pos := f.head[k]
	if pos == f.fifo[k+1] {
		return
	}
	idx := int(f.order[pos])
	tr := f.round[idx]
	start := f.q.Now()
	if tr.ReadyAt > start {
		f.schedule(tr.ReadyAt, packTag(k, evIssue))
		return
	}
	f.head[k] = pos + 1
	if f.met != nil {
		f.met.stall[f.iface].Observe(start - tr.ReadyAt)
	}
	cost := f.gap + f.sendOv
	if tr.TwoStep {
		cost += f.gap // separate length message
	}
	// The thread's previous command is the transfer before this one in its
	// FIFO; the first has none, whatever its VCQ id.
	if pos > f.fifo[k] && f.round[f.order[pos-1]].VCQ != tr.VCQ {
		cost += f.Params.VCQSwitchOverhead
	}
	done := start + cost
	tr.IssueDone = done
	if f.tracing {
		f.msgEvs[idx].IssueStart = f.RecBase + start
	}
	// Hand the command to the TNI engine at issue completion; the thread
	// can issue its next message immediately after, in the same event.
	f.schedule(done, packTag(idx, evTransmit))
}

// transmit serializes transfer idx on the source TNI engine and computes the
// network arrival time. A delivery is completed by the sweep after the round
// (complete).
func (f *Fabric) transmit(idx int) {
	p := &f.Params
	tr := f.round[idx]
	iface := f.iface
	srcNode, dstNode := f.nodeOfRank[tr.Src], f.nodeOfRank[tr.Dst]
	tni := int(srcNode)*p.TNIsPerNode + tr.TNI

	txStart := f.q.Now()
	if f.tniFree[tni] > txStart {
		txStart = f.tniFree[tni]
	}
	// Fault verdict for this transmission: drawn per (seed, round, link),
	// judged at the time the TNI engine would start serving the command.
	fo := f.Faults.Judge(tr.Src, tr.Dst, iface == IfaceUTofu, txStart)
	// Permanent fail-stop faults override the transient draws without
	// consuming any: a dead TNI, a severed link or a fail-stopped endpoint
	// loses the payload in the torus. Judged against the caller's absolute
	// clock (RecBase + engine time), which is what the spec's "@T" means.
	// One-sided traffic only — the MPI stack's system software re-binds its
	// injection queues away from dead interfaces and routes, which is what
	// makes the per-neighbor MPI fallback a recovery rather than a retry.
	if iface == IfaceUTofu {
		abs := f.RecBase + txStart
		if f.Faults.TNIFailed(tr.TNI, abs) ||
			f.Faults.LinkFailed(tr.Src, tr.Dst, abs) ||
			f.Faults.RankFailed(tr.Src, abs) || f.Faults.RankFailed(tr.Dst, abs) {
			fo.Drop, fo.Nack = true, false
		}
	}
	if fo.Stall > 0 {
		// Transient TNI stall: the engine pauses before the command.
		txStart += fo.Stall
		if f.met != nil {
			f.met.faultStalls.Inc()
		}
	}
	engine := p.TNIEngineGap
	wire := f.WireTime(units.Bytes(tr.Bytes)) * fo.WireFactor
	busy := engine
	if wire > busy {
		busy = wire
	}
	// The engine pays the hardware-side VCQ switch gap whenever the command
	// comes from a different VCQ than the previous one it served: the
	// descriptor-ring context must be refetched. This is what degrades
	// spraying many VCQs over shared TNIs beyond the sender-side software
	// cost already charged in issue.
	vcqSwitch := f.tniLastVCQ[tni] >= 0 && f.tniLastVCQ[tni] != tr.VCQ
	if vcqSwitch {
		busy += p.TNIVCQSwitchGap
	}
	txDone := txStart + busy
	f.tniFree[tni] = txDone
	f.tniLastVCQ[tni] = tr.VCQ

	hops := f.hops(srcNode, dstNode)
	if f.met != nil {
		t := &f.met.tally
		t.msgs[tr.TNI]++
		t.bytes[tr.TNI] += int64(tr.Bytes)
		if vcqSwitch {
			t.switches[tr.TNI]++
		}
		for hops >= len(t.hops) {
			t.hops = append(t.hops, 0)
		}
		t.hops[hops]++
	}

	if srcNode == dstNode {
		// Intra-node: through the on-chip ring bus, no torus hops. The TNI
		// engine cost still applies (the implementation uses the NIC
		// loopback path for uniformity).
		tr.Arrival = txDone + p.BaseLatency/2
	} else {
		lat := f.Latency(hops)
		if iface == IfaceMPI && units.Bytes(tr.Bytes) > p.MPIEagerLimit {
			// Rendezvous: RTS/CTS round trip before the payload moves.
			lat += 2 * f.Latency(hops)
		}
		tr.Arrival = txDone + lat
	}
	if f.tracing {
		// Everything known at transmit time; complete adds the completion.
		b, ev := f.RecBase, &f.msgEvs[idx]
		*ev = trace.MessageEvent{
			Src: tr.Src, Dst: tr.Dst, SrcNode: int(srcNode),
			TNI: tr.TNI, VCQ: tr.VCQ, Thread: tr.Thread, DstThread: tr.DstThread,
			Bytes: tr.Bytes, Hops: hops, Iface: iface.String(),
			TwoStep: tr.TwoStep, VCQSwitch: vcqSwitch,
			Attempt: tr.Attempt,
			ReadyAt: b + tr.ReadyAt, IssueStart: ev.IssueStart,
			IssueDone: b + tr.IssueDone, TxStart: b + txStart, TxDone: b + txDone,
		}
	}
	if fo.Failed() {
		// The TNI engine was charged (the command did transmit); the payload
		// never completes at the receiver. A drop is lost in the torus; a
		// NACK reaches the receiver and is rejected by the MRQ.
		tr.Dropped, tr.Nacked = fo.Drop, fo.Nack
		if fo.Drop {
			tr.Arrival = 0
		}
		tr.RecvComplete = 0
		if f.met != nil {
			if fo.Drop {
				f.met.drops.Inc()
			} else {
				f.met.nacks.Inc()
			}
		}
		if f.tracing {
			ev := &f.msgEvs[idx]
			ev.Dropped, ev.Nacked = tr.Dropped, tr.Nacked
			if tr.Nacked {
				ev.Arrival = f.RecBase + tr.Arrival
			}
			f.msgSet[idx] = true
		}
		return
	}
	// The delivery's place among the round's transmissions. As an event,
	// its receive would carry the key tail seq, which grows with every
	// transmission: the ordinal is the same order, up to a monotone
	// renumbering.
	f.sentKey[idx] = f.sent
	f.sent++
}

// recvCtx returns the slot of the polling context that completes tr.
func (f *Fabric) recvCtx(tr *Transfer) int {
	return tr.Dst*f.threads + tr.DstThread
}

// complete runs every delivery's receive completion after the engine has
// drained. A receive context handles completions one at a time, and a
// completion touches only its context's free time and its own transfer, so
// all that matters is the order within each context: the order the
// completions would run in as events at their Arrival, sent from the
// transmit event at IssueDone — (Arrival, IssueDone, seq). Ties on
// the times are common (homogeneous rounds), so the full key is needed.
func (f *Fabric) complete(slots int) {
	p := &f.Params
	// Group the deliveries by context with a stable counting sort.
	f.recvAt = zeroed(f.recvAt, slots+1)
	n := 0
	for _, tr := range f.round {
		if !tr.Failed() {
			f.recvAt[f.recvCtx(tr)+1]++
			n++
		}
	}
	for k := 0; k < slots; k++ {
		f.recvAt[k+1] += f.recvAt[k]
	}
	f.recvs = zeroed(f.recvs, n)
	for idx, tr := range f.round {
		if tr.Failed() {
			continue
		}
		k := f.recvCtx(tr)
		f.recvs[f.recvAt[k]] = completion{arrival: tr.Arrival, issueDone: tr.IssueDone, key: f.sentKey[idx], idx: int32(idx)}
		f.recvAt[k]++
	}
	cost := f.recvOv
	if !p.CacheInjection {
		cost += p.CacheMissPenalty
	}
	lo := int32(0)
	for _, hi := range f.recvAt[:slots] {
		group := f.recvs[lo:hi]
		lo = hi
		slices.SortFunc(group, completionOrder)
		free := 0.0 // when the context is free again
		for _, d := range group {
			tr := f.round[d.idx]
			ov := cost
			if tr.TwoStep {
				ov += f.recvOv // match the length message too
			}
			start := tr.Arrival
			if free > start {
				start = free
			}
			tr.RecvComplete = start + ov
			free = tr.RecvComplete
			if f.tracing {
				ev := &f.msgEvs[d.idx]
				ev.Arrival = f.RecBase + tr.Arrival
				ev.RecvComplete = f.RecBase + tr.RecvComplete
				f.msgSet[d.idx] = true
			}
		}
	}
}

// completionOrder orders one context's deliveries by their receive event's
// key.
func completionOrder(a, b completion) int {
	if a.arrival != b.arrival {
		return cmp.Compare(a.arrival, b.arrival)
	}
	if a.issueDone != b.issueDone {
		return cmp.Compare(a.issueDone, b.issueDone)
	}
	return cmp.Compare(a.key, b.key)
}
