package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event export: the recorder's events rendered in the JSON
// format Perfetto and chrome://tracing load directly. The track layout maps
// the simulated hardware onto the trace-viewer process/thread hierarchy:
//
//   - one process per rank (pid = rank), with one thread per issuing CPU
//     thread ("cpu N"), one per receive-polling context ("recvctx N") and a
//     "stages" thread carrying the MD stage spans;
//   - one process per node's TNI block (pid = tniPidBase + node), with one
//     thread per TNI engine, so the per-TNI serialization and VCQ switches
//     of sections 3.1-3.3 are visible as queueing on those tracks;
//   - one "fabric rounds" process for bulk-synchronous round and collective
//     spans;
//   - one "engine counters" process carrying counter tracks (Ph "C"), e.g.
//     the event count of the scaling-diagnosis layer.
//
// Timestamps are microseconds of virtual time, the unit the paper reports.

const (
	tniPidBase  = 1 << 20
	roundsPid   = 2 << 20
	countersPid = 3 << 20
	stagesTid   = 0
	cpuTidBase  = 1
	recvTidBase = 512
)

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Sc   string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const usPerSec = 1e6

// WriteChrome writes every recorded event as Chrome trace-event JSON. A nil
// recorder writes an empty but valid trace.
func (r *Recorder) WriteChrome(w io.Writer) error {
	if r == nil {
		enc := json.NewEncoder(w)
		return enc.Encode(chromeFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"})
	}
	f := chromeFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	add := func(ev chromeEvent) { f.TraceEvents = append(f.TraceEvents, ev) }
	meta := func(pid, tid int, key, label string) {
		add(chromeEvent{Name: key, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": label}})
	}

	ranks := map[int]bool{}
	nodes := map[int]bool{}
	haveRounds := false
	for _, m := range r.Messages() {
		ranks[m.Src] = true
		ranks[m.Dst] = true
		nodes[m.SrcNode] = true
		recvPid, recvTid := m.Dst, recvTidBase+m.DstThread
		if m.IsGet {
			recvPid, recvTid = m.Src, recvTidBase+m.Thread
		}
		label := fmt.Sprintf("%d→%d %dB", m.Src, m.Dst, m.Bytes)
		args := map[string]any{
			"src": m.Src, "dst": m.Dst, "tni": m.TNI, "vcq": m.VCQ,
			"thread": m.Thread, "bytes": m.Bytes, "hops": m.Hops,
			"iface":    m.Iface,
			"stall_us": usPerSec * (m.IssueStart - m.ReadyAt),
		}
		if m.TwoStep {
			args["two_step"] = true
		}
		if m.IsGet {
			args["get"] = true
		}
		if m.VCQSwitch {
			args["vcq_switch"] = true
		}
		if m.Attempt > 0 {
			args["attempt"] = m.Attempt
		}
		if m.Dropped {
			args["dropped"] = true
		}
		if m.Nacked {
			args["nacked"] = true
		}
		add(chromeEvent{Name: "issue " + label, Cat: "issue", Ph: "X",
			Ts: usPerSec * m.IssueStart, Dur: usPerSec * (m.IssueDone - m.IssueStart),
			Pid: m.Src, Tid: cpuTidBase + m.Thread, Args: args})
		add(chromeEvent{Name: "tx " + label, Cat: "tni", Ph: "X",
			Ts: usPerSec * m.TxStart, Dur: usPerSec * (m.TxDone - m.TxStart),
			Pid: tniPidBase + m.SrcNode, Tid: m.TNI, Args: args})
		if m.Dropped {
			// Nothing reached the receiver: mark the loss on the TNI track.
			add(chromeEvent{Name: "drop " + label, Cat: "fault", Ph: "i",
				Ts: usPerSec * m.TxDone, Pid: tniPidBase + m.SrcNode, Tid: m.TNI, Sc: "t"})
			continue
		}
		if m.Nacked {
			// The delivery reached the receiver and was rejected by the MRQ.
			add(chromeEvent{Name: "nack " + label, Cat: "fault", Ph: "i",
				Ts: usPerSec * m.Arrival, Pid: recvPid, Tid: recvTid, Sc: "t"})
			continue
		}
		add(chromeEvent{Name: "recv " + label, Cat: "recv", Ph: "X",
			Ts: usPerSec * m.Arrival, Dur: usPerSec * (m.RecvComplete - m.Arrival),
			Pid: recvPid, Tid: recvTid, Args: args})
	}
	for _, sp := range r.Spans() {
		ranks[sp.Rank] = true
		add(chromeEvent{Name: sp.Name, Cat: "stage", Ph: "X",
			Ts: usPerSec * sp.Start, Dur: usPerSec * (sp.End - sp.Start),
			Pid: sp.Rank, Tid: stagesTid,
			Args: map[string]any{"stage": sp.Stage, "step": sp.Step}})
	}
	for _, rd := range r.Rounds() {
		haveRounds = true
		add(chromeEvent{Name: rd.Kind, Cat: "round", Ph: "X",
			Ts: usPerSec * rd.Start, Dur: usPerSec * (rd.End - rd.Start),
			Pid: roundsPid, Tid: roundTid(rd.Kind),
			Args: map[string]any{"count": rd.Count, "bytes": rd.Bytes}})
	}
	for _, in := range r.Instants() {
		ranks[in.Rank] = true
		add(chromeEvent{Name: in.Name, Cat: "instant", Ph: "i",
			Ts: usPerSec * in.Time, Pid: in.Rank, Tid: stagesTid, Sc: "t"})
	}
	haveCounters := false
	for _, cs := range r.Counters() {
		haveCounters = true
		// Ph "C": the viewer plots one filled track per (pid, name) from the
		// args series.
		add(chromeEvent{Name: cs.Name, Cat: "counter", Ph: "C",
			Ts: usPerSec * cs.Time, Pid: countersPid, Tid: 0,
			Args: map[string]any{"value": cs.Value}})
	}

	for _, id := range sortedKeys(ranks) {
		meta(id, stagesTid, "process_name", fmt.Sprintf("rank %d", id))
		meta(id, stagesTid, "thread_name", "stages")
	}
	for _, n := range sortedKeys(nodes) {
		meta(tniPidBase+n, 0, "process_name", fmt.Sprintf("node %d TNIs", n))
	}
	if haveRounds {
		meta(roundsPid, 0, "process_name", "fabric rounds")
	}
	if haveCounters {
		meta(countersPid, 0, "process_name", "engine counters")
	}

	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// roundTid gives each round kind its own track.
func roundTid(kind string) int {
	switch kind {
	case "utofu-put":
		return 0
	case "utofu-get":
		return 1
	case "mpi-p2p":
		return 2
	case "allreduce":
		return 3
	default:
		return 4
	}
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
