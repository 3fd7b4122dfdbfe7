package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
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

	stats := &des.ParallelStats{Events: 50}
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
	if st.Engine == nil || st.Engine.Events != 50 {
		t.Fatalf("engine section wrong: %+v", st.Engine)
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
	s.Observe(1, &des.ParallelStats{Events: 1}, nil)
	st := s.Snapshot()
	st.Engine.Events = 999
	if again := s.Snapshot(); again.Engine.Events != 1 {
		t.Error("Snapshot aliases the internal engine section")
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

// The server Serve builds carries the header-read and idle timeouts but no
// write timeout, and a handler reading a body past the cap gets an error.
func TestServeLimits(t *testing.T) {
	srv := newServer(nil)
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || srv.WriteTimeout != 0 {
		t.Errorf("server timeouts: header %v idle %v write %v", srv.ReadHeaderTimeout, srv.IdleTimeout, srv.WriteTimeout)
	}

	ln, addr, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	readErr := make(chan error, 1)
	done := make(chan error, 1)
	go func() {
		done <- Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, err := io.Copy(io.Discard, r.Body)
			readErr <- err
			if err != nil {
				w.WriteHeader(http.StatusRequestEntityTooLarge)
			}
		}))
	}()
	resp, err := http.Post("http://"+addr+"/", "application/octet-stream", bytes.NewReader(make([]byte, 2<<20)))
	if err == nil {
		resp.Body.Close()
	}
	var mbe *http.MaxBytesError
	if got := <-readErr; !errors.As(got, &mbe) || mbe.Limit != maxBodyBytes {
		t.Errorf("reading a 2 MiB body: err = %v, want a MaxBytesError at %d", got, maxBodyBytes)
	}
	ln.Close()
	if err := <-done; err == nil {
		t.Error("Serve returned nil after its listener closed")
	}
}
