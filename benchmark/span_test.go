package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// mk builds a finished span by hand; times are in ms on the tracer's clock.
func mk(id, parent int, name string, start, end float64) span {
	d := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	return span{id: id, parent: parent, name: name, workload: "w", op: -1, start: d(start), end: d(end)}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		mk(1, 0, "op", 0, 100),
		mk(2, 1, "core.Step", 10, 40),
		mk(3, 1, "core.Step", 30, 60), // overlaps its sibling: 10..60 counts once
		mk(4, 1, "wait", 90, 120),     // runs past its parent: clipped at 100
		mk(5, 2, "inner", 10, 20),
	}
	rows := map[string]selfRow{}
	for _, r := range selfTimes(spans) {
		rows[r.Name] = r
	}
	want := map[string][2]float64{ // total, self
		"op":        {100, 40}, // 100 - (50 + 10)
		"core.Step": {60, 50},  // 30 + 30 total; the first loses 10 to "inner"
		"wait":      {30, 30},
		"inner":     {10, 10},
	}
	for name, w := range want {
		r := rows[name]
		if math.Abs(r.TotalMS-w[0]) > 1e-9 || math.Abs(r.SelfMS-w[1]) > 1e-9 {
			t.Errorf("%s: total %.3f self %.3f, want %.3f %.3f", name, r.TotalMS, r.SelfMS, w[0], w[1])
		}
	}
	if rows["core.Step"].Count != 2 {
		t.Errorf("core.Step count = %d, want 2", rows["core.Step"].Count)
	}
	if got := opCoverage(spans)["w"]; math.Abs(got-0.6) > 1e-9 {
		t.Errorf("op coverage = %v, want 0.6", got)
	}
}

func TestNilSpanIsInert(t *testing.T) {
	var tr *tracer
	root := tr.root("workload", "w")
	op := root.opChild(0, 0)
	op.child("core.Step").finish()
	op.finish()
	root.finish()
	if root != nil || op != nil || tr.all() != nil {
		t.Error("a nil tracer must hand out nil spans and record nothing")
	}
}

func TestTracerRecordsParentsAndWritesChrome(t *testing.T) {
	tr := newTracer()
	root := tr.root("workload", "lj_dense")
	op := root.opChild(1, 7)
	step := op.child("core.Step")
	step.finish()
	op.finish()
	root.finish()

	spans := tr.all()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.name] = s
	}
	if s := byName["core.Step"]; s.parent != byName["op"].id || s.op != 7 || s.client != 1 || s.workload != "lj_dense" {
		t.Errorf("child did not inherit from its op: %+v", s)
	}

	var buf bytes.Buffer
	if err := writeChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not loadable JSON: %v", err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
			if ev.Args["workload"] != "lj_dense" {
				t.Errorf("event %s lost its workload: %v", ev.Name, ev.Args)
			}
		}
	}
	if complete != 3 {
		t.Errorf("trace has %d complete events, want 3", complete)
	}
}
