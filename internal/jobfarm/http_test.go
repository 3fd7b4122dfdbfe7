package jobfarm

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postJob(t *testing.T, url string, sp Spec) (*http.Response, map[string]string) {
	t.Helper()
	body, _ := json.Marshal(sp)
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]string{}
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func TestHTTPJobLifecycle(t *testing.T) {
	f, err := New(Config{Workers: 1, Runner: fakeRunner(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	resp, out := postJob(t, srv.URL, testSpec(100))
	if resp.StatusCode != http.StatusAccepted || out["id"] == "" {
		t.Fatalf("submit: status %d body %v, want 202 with id", resp.StatusCode, out)
	}
	id := out["id"]

	deadline := time.Now().Add(5 * time.Second)
	var st JobStatus
	for time.Now().Before(deadline) {
		r, err := http.Get(srv.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if st.State.Terminal() {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.State != Done || st.StepsDone != 100 {
		t.Fatalf("job status: %+v, want done at 100", st)
	}

	// List includes the job; /farm reports the pool.
	r, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	json.NewDecoder(r.Body).Decode(&list)
	r.Body.Close()
	if len(list) != 1 || list[0].ID != id {
		t.Fatalf("list: %+v, want the one job", list)
	}
	r, err = http.Get(srv.URL + "/farm")
	if err != nil {
		t.Fatal(err)
	}
	var fs FarmStatus
	json.NewDecoder(r.Body).Decode(&fs)
	r.Body.Close()
	if fs.Workers != 1 || len(fs.Jobs) != 1 {
		t.Fatalf("farm status: %+v", fs)
	}

	// Unknown job: 404. Bad spec: 400.
	if r, _ := http.Get(srv.URL + "/jobs/job-9999"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", r.StatusCode)
	}
	bad, _ := postJob(t, srv.URL, Spec{Potential: "nope", Atoms: 1, Nodes: "1x1x1", Steps: 1})
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec: status %d, want 400", bad.StatusCode)
	}
}

func TestHTTPShedLoadAndCancel(t *testing.T) {
	f, err := New(Config{Workers: 1, QueueCap: 1, Runner: fakeRunner(5 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	// Occupy the worker and the queue, then overflow: 429.
	if resp, _ := postJob(t, srv.URL, testSpec(1_000_000)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	waitJob(t, f, "job-0001", func(st JobStatus) bool { return st.State == Running })
	resp2, out2 := postJob(t, srv.URL, testSpec(1_000_000))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp2.StatusCode)
	}
	if resp3, _ := postJob(t, srv.URL, testSpec(100)); resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp3.StatusCode)
	}

	// DELETE cancels the queued job.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+out2["id"], nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", r.StatusCode)
	}
	st, _ := f.Status(out2["id"])
	if st.State != Cancelled {
		t.Fatalf("cancelled job: %+v", st)
	}
}

func TestHTTPDrainingResponses(t *testing.T) {
	f, err := New(Config{Workers: 1, Runner: fakeRunner(0)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJob(t, srv.URL, testSpec(100)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit: status %d, want 503", resp.StatusCode)
	}
	r, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: status %d, want 503", r.StatusCode)
	}
}

// TestHTTPSubmitBodyCapped: a submit body over the cap is refused with 413
// and queues nothing.
func TestHTTPSubmitBodyCapped(t *testing.T) {
	f, err := New(Config{Workers: 1, Runner: fakeRunner(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	body := `{"name":"` + strings.Repeat("a", 65<<10) + `"}`
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("65 KiB spec: status %d, want 413", resp.StatusCode)
	}
	if jobs := f.Snapshot().Jobs; len(jobs) != 0 {
		t.Errorf("oversized spec queued %d jobs", len(jobs))
	}
}
