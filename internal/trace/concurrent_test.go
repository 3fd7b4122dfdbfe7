package trace_test

// The Recorder's concurrency contract says every emission method is safe
// from the parallel engine's LP goroutines. This test drives a real 4-LP
// des.ParallelEngine whose events emit spans, counters, instants and
// messages concurrently; run under -race (the CI default) it guards the
// contract, and the count assertions guard against lost appends.

import (
	"strings"
	"testing"

	"tofumd/internal/des"
	"tofumd/internal/trace"
)

func TestRecorderConcurrentEmissionFromLPs(t *testing.T) {
	const lps, perLP = 4, 200
	rec := trace.NewRecorder()
	p, err := des.NewParallel(lps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < lps; i++ {
		l := p.LP(i)
		id := i
		for j := 0; j < perLP; j++ {
			at := float64(j) * 1e-7
			seq := j
			if err := l.ScheduleAt(at, func() {
				rec.Span(trace.SpanEvent{Rank: id, Name: "work", Stage: "Other", Step: seq, Start: l.Now(), End: l.Now() + 1e-8})
				rec.Counter("lp events", l.Now(), float64(seq))
				rec.Instant(trace.InstantEvent{Rank: id, Name: "tick", Time: l.Now()})
				rec.Message(trace.MessageEvent{Src: id, Dst: (id + 1) % lps, Bytes: 64, Iface: "utofu"})
				// Keep every LP scheduling while the others emit.
				if err := l.ScheduleAt(l.Now()+1e-6, func() {}); err != nil {
					t.Errorf("ScheduleAt: %v", err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.Run()
	want := lps * perLP
	if got := len(rec.Spans()); got != want {
		t.Errorf("spans recorded: %d, want %d", got, want)
	}
	if got := len(rec.Counters()); got != want {
		t.Errorf("counter samples recorded: %d, want %d", got, want)
	}
	if got := len(rec.Instants()); got != want {
		t.Errorf("instants recorded: %d, want %d", got, want)
	}
	if got := len(rec.Messages()); got != want {
		t.Errorf("messages recorded: %d, want %d", got, want)
	}
}

// TestWriteChromeCounterTrack pins the Ph "C" export of counter samples.
func TestWriteChromeCounterTrack(t *testing.T) {
	rec := trace.NewRecorder()
	rec.Counter("lp0 events", 1e-6, 42)
	var sb strings.Builder
	if err := rec.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"ph":"C"`, `"lp0 events"`, `"value":42`, "engine counters"} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome export missing %s:\n%s", want, out)
		}
	}
}
