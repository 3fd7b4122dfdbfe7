package trace_test

// The Recorder's concurrency contract says every emission method is safe
// from concurrent goroutines: the job farm's workers share one Recorder.
// This test emits spans, counters, instants and messages from several
// goroutines at once; run under -race (the CI default) it guards the
// contract, and the count assertions guard against lost appends.

import (
	"strings"
	"sync"
	"testing"

	"tofumd/internal/trace"
)

func TestRecorderConcurrentEmissionFromLPs(t *testing.T) {
	const emitters, perEmitter = 4, 200
	rec := trace.NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < emitters; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perEmitter; j++ {
				at := float64(j) * 1e-7
				rec.Span(trace.SpanEvent{Rank: id, Name: "work", Stage: "Other", Step: j, Start: at, End: at + 1e-8})
				rec.Counter("emitter events", at, float64(j))
				rec.Instant(trace.InstantEvent{Rank: id, Name: "tick", Time: at})
				rec.Message(trace.MessageEvent{Src: id, Dst: (id + 1) % emitters, Bytes: 64, Iface: "utofu"})
			}
		}(i)
	}
	wg.Wait()
	want := emitters * perEmitter
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
