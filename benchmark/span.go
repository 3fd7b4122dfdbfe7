package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are recorded
// only in the traced pass: every method is safe on a nil *span, so the
// untraced passes pay one pointer check per call site and nothing else.
type span struct {
	tr       *tracer
	id       int
	parent   int // 0 = root
	name     string
	workload string
	client   int
	op       int // -1 outside an op
	start    time.Duration
	end      time.Duration
}

// tracer keeps finished spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// root opens a top-level span for a workload. A nil tracer returns nil.
func (t *tracer) root(name, workload string) *span {
	if t == nil {
		return nil
	}
	return t.open(&span{name: name, workload: workload, op: -1})
}

func (t *tracer) open(s *span) *span {
	t.mu.Lock()
	t.next++
	s.id = t.next
	t.mu.Unlock()
	s.tr = t
	s.start = time.Since(t.epoch)
	return s
}

// child opens a span caused by s; it inherits workload, client and op.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.tr.open(&span{name: name, parent: s.id, workload: s.workload, client: s.client, op: s.op})
}

// opChild opens the span of one operation of one client.
func (s *span) opChild(client, op int) *span {
	if s == nil {
		return nil
	}
	return s.tr.open(&span{name: "op", parent: s.id, workload: s.workload, client: client, op: op})
}

// finish closes the span and stores it.
func (s *span) finish() {
	if s == nil {
		return
	}
	s.end = time.Since(s.tr.epoch)
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, *s)
	s.tr.mu.Unlock()
}

// all returns the finished spans ordered by start time.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].id < out[j].id
	})
	return out
}

// covered returns how much of [s.start, s.end] the given child spans cover,
// counting overlapping children once.
func covered(s span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.start, c.end
		if a < s.start {
			a = s.start
		}
		if b > s.end {
			b = s.end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, edge time.Duration
	edge = s.start
	for _, v := range ivs {
		if v.a > edge {
			edge = v.a
		}
		if v.b > edge {
			sum += v.b - edge
			edge = v.b
		}
	}
	return sum
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	TotalMS  float64 `json:"total_ms"`
	SelfMS   float64 `json:"self_ms"`
}

// selfTimes aggregates spans by (workload, name): total is the summed
// duration, self is total minus the part of each span its children cover.
func selfTimes(spans []span) []selfRow {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	type key struct{ w, n string }
	agg := map[key]*selfRow{}
	for _, s := range spans {
		k := key{s.workload, s.name}
		r := agg[k]
		if r == nil {
			r = &selfRow{Workload: s.workload, Name: s.name}
			agg[k] = r
		}
		dur := s.end - s.start
		r.Count++
		r.TotalMS += ms(dur)
		r.SelfMS += ms(dur - covered(s, kids[s.id]))
	}
	out := make([]selfRow, 0, len(agg))
	for _, r := range agg {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// opCoverage returns, per workload, the smallest share of an op span that
// its child spans account for. The acceptance bar is 0.98: a lower value
// means the benchmark spends op time in code it put no span around.
func opCoverage(spans []span) map[string]float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		if s.name != "op" || s.end <= s.start {
			continue
		}
		c := float64(covered(s, kids[s.id])) / float64(s.end-s.start)
		if v, ok := out[s.workload]; !ok || c < v {
			out[s.workload] = c
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// chromeEvent is one record of the Chrome trace-event format, which
// chrome://tracing and ui.perfetto.dev load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as complete ("X") events: one process per
// workload, one thread per client, so nesting renders as a flame chart.
func writeChrome(w io.Writer, spans []span) error {
	pids := map[string]int{}
	var events []chromeEvent
	for _, s := range spans {
		pid, ok := pids[s.workload]
		if !ok {
			pid = len(pids) + 1
			pids[s.workload] = pid
			events = append(events, chromeEvent{
				Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]any{"name": s.workload},
			})
		}
		layer := s.name
		if i := strings.IndexByte(layer, '.'); i > 0 {
			layer = layer[:i]
		}
		us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
		events = append(events, chromeEvent{
			Name: s.name, Cat: layer, Ph: "X", TS: us(s.start), Dur: us(s.end - s.start),
			PID: pid, TID: s.client,
			Args: map[string]any{"id": s.id, "parent": s.parent, "workload": s.workload, "op": s.op},
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": events}); err != nil {
		return fmt.Errorf("write chrome trace: %w", err)
	}
	return nil
}
