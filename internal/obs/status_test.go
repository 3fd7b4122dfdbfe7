package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"tofumd/internal/des"
	"tofumd/internal/health"
	"tofumd/internal/metrics"
)

func TestStatusServerNilIsDisabled(t *testing.T) {
	var s *StatusServer
	if s.Enabled() {
		t.Fatal("nil server reports enabled")
	}
	// Every method must be a safe no-op on nil.
	s.SetRun("x")
	s.SetSteps(10)
	s.SetMetrics(metrics.New())
	s.Observe(3, &des.ParallelStats{}, nil)
	s.Finish()
	if got := s.Snapshot(); got.Run != "" || got.Step != 0 || got.Done {
		t.Errorf("nil snapshot = %+v, want zero", got)
	}
	// The handler still serves the zero snapshot.
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/status", nil))
	if rr.Code != 200 {
		t.Fatalf("nil handler status %d", rr.Code)
	}
	var st Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("nil handler body not JSON: %v", err)
	}
}

func TestStatusServerSnapshotAndHandler(t *testing.T) {
	s := NewStatus("mdsim")
	s.SetSteps(100)
	reg := metrics.New()
	reg.Counter("fabric_msgs", "utofu").Add(42)
	s.SetMetrics(reg)

	stats := &des.ParallelStats{
		Lookahead: 1e-6, Profiled: true, Epochs: 9, LookaheadLimited: 2,
		LPs: []des.LPStats{
			{LP: 0, Events: 30, Epochs: 9, Sends: 4, Staged: 1, BarrierWait: 0.002},
			{LP: 1, Events: 20, Epochs: 9, Sends: 2, Staged: 2, BarrierWait: 0.001},
		},
	}
	h := health.New(0, 0)
	s.Observe(7, stats, h)

	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/status", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var st Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("body not JSON: %v\n%s", err, rr.Body.String())
	}
	if st.Run != "mdsim" || st.Step != 7 || st.Steps != 100 || st.Done {
		t.Errorf("header fields wrong: %+v", st)
	}
	if st.Engine == nil || len(st.Engine.LPs) != 2 {
		t.Fatalf("engine section wrong: %+v", st.Engine)
	}
	if st.Engine.LPs[0].Events != 30 || st.Engine.LPs[1].BarrierWaitSeconds != 0.001 {
		t.Errorf("lp rows wrong: %+v", st.Engine.LPs)
	}
	if st.Health == nil {
		t.Fatal("health section missing despite tracker")
	}
	found := false
	for _, fam := range st.Metrics {
		if fam.Name == "fabric_msgs" {
			found = true
			if len(fam.Samples) != 1 || fam.Samples[0].Value != 42 {
				t.Errorf("fabric_msgs samples wrong: %+v", fam.Samples)
			}
		}
	}
	if !found {
		t.Errorf("metrics snapshot missing fabric_msgs: %+v", st.Metrics)
	}

	s.Finish()
	if got := s.Snapshot(); !got.Done {
		t.Error("Finish did not mark done")
	}
}

func TestStatusServerSerialRun(t *testing.T) {
	s := NewStatus("serial")
	s.Observe(1, nil, nil) // no profile, no tracker
	st := s.Snapshot()
	if st.Engine != nil || st.Health != nil {
		t.Errorf("serial snapshot should have null engine/health: %+v", st)
	}
	// Root path serves the same document.
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if rr.Code != 200 {
		t.Fatalf("root path status %d", rr.Code)
	}
}

func TestStatusServerSnapshotIsCopy(t *testing.T) {
	s := NewStatus("r")
	s.Observe(1, &des.ParallelStats{LPs: []des.LPStats{{LP: 0, Events: 1}}}, nil)
	st := s.Snapshot()
	st.Engine.LPs[0].Events = 999
	if again := s.Snapshot(); again.Engine.LPs[0].Events != 1 {
		t.Error("Snapshot aliases internal LP slice")
	}
}

func TestListenBindFirst(t *testing.T) {
	ln, addr, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if addr == "" || addr == "127.0.0.1:0" {
		t.Errorf("resolved addr %q should carry the picked port", addr)
	}
	// Binding the same resolved address again must fail synchronously: the
	// whole point of bind-first is surfacing this to the caller.
	if _, _, err := Listen(addr); err == nil {
		t.Error("second bind of same address succeeded")
	}
}
