package obs

import (
	"fmt"
	"sort"
	"strings"

	"tofumd/internal/des"
	"tofumd/internal/trace"
)

// Critical-path analysis over the trace Recorder's per-message timing
// chains. Each message contributes up to four segments, every one tied to
// the serial resource that executed it:
//
//	issue [IssueStart, IssueDone]   on the issuing CPU thread (rank, thread)
//	tx    [TxStart, TxDone]         on the TNI engine (node, tni)
//	wire  [TxDone, Arrival]         in flight (no shared resource)
//	recv  [Arrival, RecvComplete]   on the receive context (rank, thread)
//
// Dependencies are (a) the previous stage of the same message and (b) the
// previous segment queued on the same resource. Walking backwards from the
// globally last-finishing segment, always following the predecessor that
// finished latest, yields the longest dependency chain through the round in
// virtual time — the critical path. No amount of additional parallelism
// (more TNIs, more threads) can push the round below the path's
// span, so TotalWork/PathWork is an Amdahl-style upper bound on achievable
// speedup, and the segments preceded by the largest slack are where the
// path is loosest — the first places to look for overlap opportunities.

// PathStep is one segment on the critical path.
type PathStep struct {
	// Kind is "issue", "tx", "wire" or "recv".
	Kind string
	// Msg indexes the message in the analyzed slice; Src/Dst/Bytes identify
	// it for the report.
	Msg, Src, Dst, Bytes int
	// Start and End bound the segment in absolute virtual seconds.
	Start, End float64
	// Slack is the idle gap between this step's chosen predecessor
	// finishing and this step starting: time the path spent waiting rather
	// than working.
	Slack float64
}

// KindWork is virtual-seconds of critical-path work by segment kind.
type KindWork struct {
	Issue, Tx, Wire, Recv float64
}

// CritPath is the result of Analyze.
type CritPath struct {
	// Messages and Segments count the analyzed inputs.
	Messages, Segments int
	// Span is the round's virtual makespan (latest segment end minus
	// earliest segment start); TotalWork the summed duration of every
	// segment on every resource.
	Span, TotalWork float64
	// PathWork and PathIdle split the critical path into executing and
	// waiting time; PathFrac is PathWork/TotalWork (1 = fully serial) and
	// SpeedupBound its inverse, the Amdahl-style ceiling on parallel
	// speedup over this round.
	PathWork, PathIdle float64
	PathFrac           float64
	SpeedupBound       float64
	// ByKind breaks PathWork down by segment kind.
	ByKind KindWork
	// Path lists the critical path, earliest segment first.
	Path []PathStep
}

// segment is the internal unit of the dependency walk.
type segment struct {
	kind            int // index into segKinds
	msg             int
	start, end      float64
	res             resKey
	hasRes          bool
	prevStage       int // same-message previous segment index, -1 if none
	bucket          int // index of res bucket, -1 if none
	posInBucket     int
	src, dst, bytes int
}

var segKinds = [4]string{"issue", "tx", "wire", "recv"}

type resKey struct {
	class int // 0 = cpu thread, 1 = tni engine, 2 = recv context
	a, b  int
}

// Analyze builds the critical path of a set of recorded messages. The
// input order only names messages (Msg indices); the result is independent
// of it up to those labels, and fully deterministic for a given input.
func Analyze(msgs []trace.MessageEvent) *CritPath {
	cp := &CritPath{Messages: len(msgs)}
	var segs []segment
	for mi, m := range msgs {
		add := func(kind int, start, end float64, res resKey, hasRes bool) {
			prev := -1
			if n := len(segs); n > 0 && segs[n-1].msg == mi {
				prev = n - 1
			}
			segs = append(segs, segment{
				kind: kind, msg: mi, start: start, end: end,
				res: res, hasRes: hasRes, prevStage: prev, bucket: -1,
				src: m.Src, dst: m.Dst, bytes: m.Bytes,
			})
		}
		add(0, m.IssueStart, m.IssueDone, resKey{0, m.Src, m.Thread}, true)
		add(1, m.TxStart, m.TxDone, resKey{1, m.SrcNode, m.TNI}, true)
		if m.Dropped {
			continue // the payload never left the torus
		}
		add(2, m.TxDone, m.Arrival, resKey{}, false)
		if m.Nacked {
			continue // rejected at the MRQ; no receive completion
		}
		add(3, m.Arrival, m.RecvComplete, resKey{2, m.Dst, m.DstThread}, true)
	}
	cp.Segments = len(segs)
	if len(segs) == 0 {
		cp.PathFrac = 1
		cp.SpeedupBound = 1
		return cp
	}

	// Bucket the segments by resource, collecting keys on first insert so
	// the later iteration is deterministic without ranging the map.
	buckets := map[resKey][]int{}
	var keys []resKey
	for i, s := range segs {
		if !s.hasRes {
			continue
		}
		if _, ok := buckets[s.res]; !ok {
			keys = append(keys, s.res)
		}
		buckets[s.res] = append(buckets[s.res], i)
	}
	for bi, k := range keys {
		b := buckets[k]
		sort.Slice(b, func(x, y int) bool {
			sx, sy := segs[b[x]], segs[b[y]]
			if sx.start != sy.start {
				return sx.start < sy.start
			}
			if sx.end != sy.end {
				return sx.end < sy.end
			}
			if sx.msg != sy.msg {
				return sx.msg < sy.msg
			}
			return sx.kind < sy.kind
		})
		for pos, si := range b {
			segs[si].bucket = bi
			segs[si].posInBucket = pos
		}
	}
	bucketOf := make([][]int, len(keys))
	for bi, k := range keys {
		bucketOf[bi] = buckets[k]
	}

	minStart, maxEnd := segs[0].start, segs[0].end
	last := 0
	for i, s := range segs {
		cp.TotalWork += s.end - s.start
		if s.start < minStart {
			minStart = s.start
		}
		// The path starts at the globally latest finish; ties break toward
		// the lower message index, then the later stage.
		if s.end > maxEnd || (s.end == segs[last].end && (s.msg < segs[last].msg || (s.msg == segs[last].msg && s.kind > segs[last].kind))) {
			if s.end >= segs[last].end {
				last = i
				maxEnd = s.end
			}
		}
	}
	cp.Span = maxEnd - minStart

	// Backward walk: at each segment choose the predecessor that finished
	// latest among (previous stage of the same message, previous segment on
	// the same resource); the gap to it is the step's slack.
	visited := make([]bool, len(segs))
	var rev []PathStep
	cur := last
	for cur >= 0 && !visited[cur] {
		visited[cur] = true
		s := segs[cur]
		pred := -1
		if s.prevStage >= 0 {
			pred = s.prevStage
		}
		if s.bucket >= 0 && s.posInBucket > 0 {
			rp := bucketOf[s.bucket][s.posInBucket-1]
			if pred < 0 || segs[rp].end > segs[pred].end {
				pred = rp
			}
		}
		slack := 0.0
		if pred >= 0 {
			if g := s.start - segs[pred].end; g > 0 {
				slack = g
			}
		} else if g := s.start - minStart; g > 0 {
			// No predecessor: the path head waited on nothing we model
			// (e.g. a ReadyAt pack delay); charge it as slack from the
			// round start.
			slack = g
		}
		rev = append(rev, PathStep{
			Kind: segKinds[s.kind], Msg: s.msg, Src: s.src, Dst: s.dst, Bytes: s.bytes,
			Start: s.start, End: s.end, Slack: slack,
		})
		cur = pred
	}
	for i := len(rev) - 1; i >= 0; i-- {
		st := rev[i]
		cp.Path = append(cp.Path, st)
		d := st.End - st.Start
		cp.PathWork += d
		cp.PathIdle += st.Slack
		switch st.Kind {
		case "issue":
			cp.ByKind.Issue += d
		case "tx":
			cp.ByKind.Tx += d
		case "wire":
			cp.ByKind.Wire += d
		case "recv":
			cp.ByKind.Recv += d
		}
	}
	if cp.TotalWork > 0 {
		cp.PathFrac = cp.PathWork / cp.TotalWork
	} else {
		cp.PathFrac = 1
	}
	if cp.PathWork > 0 {
		cp.SpeedupBound = cp.TotalWork / cp.PathWork
	} else {
		cp.SpeedupBound = 1
	}
	return cp
}

// TopSlack returns the k path steps with the most slack, largest first
// (deterministic tiebreak by message index, then kind).
func (c *CritPath) TopSlack(k int) []PathStep {
	out := append([]PathStep(nil), c.Path...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Slack != out[j].Slack {
			return out[i].Slack > out[j].Slack
		}
		if out[i].Msg != out[j].Msg {
			return out[i].Msg < out[j].Msg
		}
		return out[i].Kind < out[j].Kind
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// Report renders the analysis with the top-k slack segments.
func (c *CritPath) Report(k int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Critical path over %d messages (%d segments):\n", c.Messages, c.Segments)
	fmt.Fprintf(&sb, "  span %.3f us   total work %.3f us   path work %.3f us   path idle %.3f us\n",
		1e6*c.Span, 1e6*c.TotalWork, 1e6*c.PathWork, 1e6*c.PathIdle)
	fmt.Fprintf(&sb, "  critical-path fraction %.4f   work/span speedup bound %.2fx\n", c.PathFrac, c.SpeedupBound)
	fmt.Fprintf(&sb, "  path by kind (us): issue %.3f  tx %.3f  wire %.3f  recv %.3f\n",
		1e6*c.ByKind.Issue, 1e6*c.ByKind.Tx, 1e6*c.ByKind.Wire, 1e6*c.ByKind.Recv)
	top := c.TopSlack(k)
	if len(top) > 0 {
		fmt.Fprintf(&sb, "  top %d path segments by slack:\n", len(top))
		for i, st := range top {
			fmt.Fprintf(&sb, "   %2d. [%-5s] msg %-5d %d->%d %dB  [%.3f, %.3f] us  slack %.3f us\n",
				i+1, st.Kind, st.Msg, st.Src, st.Dst, st.Bytes, 1e6*st.Start, 1e6*st.End, 1e6*st.Slack)
		}
	}
	return sb.String()
}

// StageShares aggregates recorded per-stage spans into (stage, total
// duration) rows, largest first with deterministic tiebreaks — the MD-level
// context for the fabric-level critical path.
func StageShares(spans []trace.SpanEvent) ([]string, []float64) {
	totals := map[string]float64{}
	var names []string
	for _, sp := range spans {
		if _, ok := totals[sp.Stage]; !ok {
			names = append(names, sp.Stage)
		}
		totals[sp.Stage] += sp.End - sp.Start
	}
	sort.Slice(names, func(i, j int) bool {
		if totals[names[i]] != totals[names[j]] {
			return totals[names[i]] > totals[names[j]]
		}
		return names[i] < names[j]
	})
	vals := make([]float64, len(names))
	for i, n := range names {
		vals[i] = totals[n]
	}
	return names, vals
}

// Explain renders the full scaling-diagnosis report: the event queue's
// total (stats may be nil when the caller has none), the MD stage-span
// shares when recorded, and the critical path of the recorded messages. rec
// may be nil (no tracing); topK bounds the slack listing.
func Explain(stats *des.ParallelStats, rec *trace.Recorder, topK int) string {
	msgs := rec.Messages()
	var sb strings.Builder
	if stats != nil {
		fmt.Fprintf(&sb, "Event queue: %d events\n\n", stats.TotalEvents())
	}
	if names, vals := StageShares(rec.Spans()); len(names) > 0 {
		sb.WriteString("MD stage spans (rank-summed virtual ms): ")
		for i, n := range names {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%s %.3f", n, 1e3*vals[i])
		}
		sb.WriteString("\n\n")
	}
	if len(msgs) > 0 {
		cp := Analyze(msgs)
		sb.WriteString(cp.Report(topK))
	} else {
		sb.WriteString("No message events recorded: run with tracing to get a critical path.\n")
	}
	return sb.String()
}

// SampleLPCounters appends the event total to rec at virtual time t as one
// sample of the Chrome export's "events" counter track. Callers opt in
// explicitly (typically once per MD step from a run observer) — nothing in
// the library emits it automatically, which is what keeps traces
// byte-identical between profiled and unprofiled runs unless the caller
// asks for the track.
func SampleLPCounters(rec *trace.Recorder, st des.ParallelStats, t float64) {
	if rec == nil {
		return
	}
	rec.Counter("events", t, float64(st.TotalEvents()))
}
