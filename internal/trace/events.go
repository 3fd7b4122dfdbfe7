package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// This file holds the event-level observability layer: where Breakdown
// aggregates five stage totals, the Recorder captures one record per fabric
// message, per-stage span and per-transport round, so the per-TNI
// serialization, injection stalls and VCQ switches the paper analyses
// (sections 3.1-3.3) can be inspected message by message. The recorder is
// optional: a nil *Recorder is a valid, disabled recorder whose methods are
// single-branch no-ops, keeping the hot paths free of tracing cost.

// MessageEvent is one fabric transfer with its full timing chain. All times
// are absolute virtual seconds (the fabric adds its round base offset).
type MessageEvent struct {
	// Src and Dst are rank ids; SrcNode is the node hosting the sending TNI.
	Src, Dst, SrcNode int
	// TNI, VCQ and Thread identify the injection resources; DstThread is the
	// receiver-side polling context.
	TNI, VCQ, Thread, DstThread int
	// Bytes is the wire size; Hops the torus distance (0 intra-node).
	Bytes, Hops int
	// Iface names the software stack ("utofu" or "mpi").
	Iface string
	// TwoStep marks the MPI unknown-length protocol; IsGet a one-sided read.
	TwoStep, IsGet bool
	// VCQSwitch marks that the serving TNI engine changed VCQs for this
	// command and paid the switch gap.
	VCQSwitch bool
	// Attempt counts prior transmissions of the same logical message (0 for
	// the first try; retransmissions carry 1, 2, ...).
	Attempt int
	// Dropped marks a payload lost in the torus (fault injection); Arrival
	// and RecvComplete are 0. Nacked marks a delivery the receiving TNI
	// rejected with an MRQ-overflow NACK; Arrival is the rejected delivery
	// time and RecvComplete is 0.
	Dropped, Nacked bool

	// The timing chain: the payload is packed at ReadyAt, the issuing thread
	// starts at IssueStart (later than ReadyAt when busy with earlier
	// messages) and frees at IssueDone, the TNI engine processes the command
	// in [TxStart, TxDone], the last byte lands at Arrival, and the receiver
	// software completes at RecvComplete.
	ReadyAt, IssueStart, IssueDone float64
	TxStart, TxDone                float64
	Arrival, RecvComplete          float64
}

// SpanEvent is one named interval on a rank's timeline (an MD stage such as
// "border" or "pair").
type SpanEvent struct {
	Rank int
	// Name is the fine-grained label (border/forward/pair/reverse/modify...);
	// Stage the coarse LAMMPS stage it accrues to.
	Name, Stage string
	Step        int
	Start, End  float64
}

// RoundEvent is one bulk-synchronous transport round or collective.
type RoundEvent struct {
	// Kind names the round ("utofu-put", "utofu-get", "mpi-p2p",
	// "allreduce").
	Kind string
	// Count is the message count (or rank count for collectives).
	Count      int
	Bytes      int
	Start, End float64
}

// InstantEvent is a point occurrence on a rank's timeline, e.g. an STADD
// memory registration.
type InstantEvent struct {
	Rank int
	Name string
	Time float64
}

// CounterSample is one sample of a named counter track (a Ph "C" event in
// the Chrome export): the track named Name has value Value at virtual time
// Time. The scaling-diagnosis layer uses these for its progress track
// ("events" over virtual time).
type CounterSample struct {
	Name  string
	Time  float64
	Value float64
}

// Recorder accumulates trace events. A nil *Recorder is a valid disabled
// recorder: every method nil-checks the receiver first.
//
// Concurrency contract: every emission method (Message, Span, Round,
// Instant, Counter) and every accessor is safe to call concurrently — in
// particular from the job farm's workers and thread-pool workers; the
// internal mutex is held only for the append. What the mutex
// does NOT provide is a deterministic order: concurrent emitters append in
// goroutine-scheduling order. Producers that need byte-identical output
// across runs must impose their own order — the fabric buffers one
// MessageEvent per transfer slot (single writer each) during a round and
// flushes them in transfer order afterwards, which is why fabric traces are
// byte-identical across repeat runs. Span and
// counter emitters in the simulation layer run on the single driver
// goroutine, so their order is the program order.
type Recorder struct {
	mu    sync.Mutex
	msgs  []MessageEvent
	spans []SpanEvent
	rnds  []RoundEvent
	insts []InstantEvent
	ctrs  []CounterSample
}

// NewRecorder returns an enabled recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Enabled reports whether events are being collected.
func (r *Recorder) Enabled() bool { return r != nil }

// Message records one fabric transfer.
func (r *Recorder) Message(ev MessageEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.msgs = append(r.msgs, ev)
	r.mu.Unlock()
}

// Span records one stage interval.
func (r *Recorder) Span(ev SpanEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, ev)
	r.mu.Unlock()
}

// Round records one transport round or collective.
func (r *Recorder) Round(ev RoundEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rnds = append(r.rnds, ev)
	r.mu.Unlock()
}

// Instant records one point event.
func (r *Recorder) Instant(ev InstantEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.insts = append(r.insts, ev)
	r.mu.Unlock()
}

// Counter records one counter-track sample.
func (r *Recorder) Counter(name string, t, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ctrs = append(r.ctrs, CounterSample{Name: name, Time: t, Value: v})
	r.mu.Unlock()
}

// Messages returns a copy of the recorded message events.
func (r *Recorder) Messages() []MessageEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]MessageEvent(nil), r.msgs...)
}

// Spans returns a copy of the recorded span events.
func (r *Recorder) Spans() []SpanEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SpanEvent(nil), r.spans...)
}

// Rounds returns a copy of the recorded round events.
func (r *Recorder) Rounds() []RoundEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RoundEvent(nil), r.rnds...)
}

// Instants returns a copy of the recorded instant events.
func (r *Recorder) Instants() []InstantEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]InstantEvent(nil), r.insts...)
}

// Counters returns a copy of the recorded counter samples.
func (r *Recorder) Counters() []CounterSample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]CounterSample(nil), r.ctrs...)
}

// RankSummary aggregates the messages one rank injected.
type RankSummary struct {
	Rank  int
	Msgs  int
	Bytes int
	// MeanStall and MaxStall measure the injection stall: how long a packed
	// message waited for its issuing thread (IssueStart - ReadyAt).
	MeanStall, MaxStall float64
}

// TNISummary aggregates the commands one TNI engine served.
type TNISummary struct {
	Node, TNI int
	Msgs      int
	Bytes     int
	// Switches counts commands that paid the engine's VCQ-switch gap.
	Switches int
	// Busy is the summed engine occupancy; BusyFrac relates it to the span
	// between the TNI's first and last command.
	Busy, BusyFrac float64
}

// Summary reduces the message events to per-rank and per-TNI tables.
type Summary struct {
	Ranks []RankSummary
	TNIs  []TNISummary
}

// Summarize builds the per-rank / per-TNI summary of everything recorded.
func (r *Recorder) Summarize() *Summary {
	s := &Summary{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	msgs := append([]MessageEvent(nil), r.msgs...)
	r.mu.Unlock()

	byRank := map[int]*RankSummary{}
	type tniKey struct{ node, tni int }
	type tniAgg struct {
		TNISummary
		first, last float64
	}
	byTNI := map[tniKey]*tniAgg{}
	for _, m := range msgs {
		rs := byRank[m.Src]
		if rs == nil {
			rs = &RankSummary{Rank: m.Src}
			byRank[m.Src] = rs
		}
		rs.Msgs++
		rs.Bytes += m.Bytes
		stall := m.IssueStart - m.ReadyAt
		if stall < 0 {
			stall = 0
		}
		rs.MeanStall += stall // sum here; divided below
		if stall > rs.MaxStall {
			rs.MaxStall = stall
		}

		k := tniKey{m.SrcNode, m.TNI}
		ts := byTNI[k]
		if ts == nil {
			ts = &tniAgg{TNISummary: TNISummary{Node: k.node, TNI: k.tni}, first: m.TxStart, last: m.TxDone}
			byTNI[k] = ts
		}
		ts.Msgs++
		ts.Bytes += m.Bytes
		if m.VCQSwitch {
			ts.Switches++
		}
		ts.Busy += m.TxDone - m.TxStart
		if m.TxStart < ts.first {
			ts.first = m.TxStart
		}
		if m.TxDone > ts.last {
			ts.last = m.TxDone
		}
	}
	ranks := make([]int, 0, len(byRank))
	for rank := range byRank {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	for _, rank := range ranks {
		rs := byRank[rank]
		if rs.Msgs > 0 {
			rs.MeanStall /= float64(rs.Msgs)
		}
		s.Ranks = append(s.Ranks, *rs)
	}
	tniKeys := make([]tniKey, 0, len(byTNI))
	for k := range byTNI {
		tniKeys = append(tniKeys, k)
	}
	sort.Slice(tniKeys, func(i, j int) bool {
		if tniKeys[i].node != tniKeys[j].node {
			return tniKeys[i].node < tniKeys[j].node
		}
		return tniKeys[i].tni < tniKeys[j].tni
	})
	for _, k := range tniKeys {
		ts := byTNI[k]
		if span := ts.last - ts.first; span > 0 {
			ts.BusyFrac = ts.Busy / span
		}
		s.TNIs = append(s.TNIs, ts.TNISummary)
	}
	return s
}

// Format renders the summary as two aligned tables.
func (s *Summary) Format() string {
	var sb strings.Builder
	sb.WriteString("Per-rank injection summary:\n")
	sb.WriteString("rank   | msgs   | bytes      | mean stall (us) | max stall (us)\n")
	for _, r := range s.Ranks {
		fmt.Fprintf(&sb, "%-6d | %-6d | %-10d | %15.3f | %14.3f\n",
			r.Rank, r.Msgs, r.Bytes, 1e6*r.MeanStall, 1e6*r.MaxStall)
	}
	sb.WriteString("\nPer-TNI engine summary:\n")
	sb.WriteString("node   | tni | msgs   | bytes      | vcq-switches | busy (us)  | busy frac\n")
	for _, t := range s.TNIs {
		fmt.Fprintf(&sb, "%-6d | %-3d | %-6d | %-10d | %-12d | %10.3f | %9.3f\n",
			t.Node, t.TNI, t.Msgs, t.Bytes, t.Switches, 1e6*t.Busy, t.BusyFrac)
	}
	return sb.String()
}
