package jobfarm

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
)

// Handler exposes the farm's HTTP API:
//
//	POST   /jobs        submit a Spec, 202 {"id": ...}
//	GET    /jobs        list all job statuses
//	GET    /jobs/{id}   one job's status
//	DELETE /jobs/{id}   cancel a job
//	GET    /farm        farm-wide status
//	GET    /healthz     liveness (503 while draining)
//
// Admission failures are explicit shed-load responses: 429 when the
// queue is full, 503 while draining, 413 for a spec body over 64 KiB.
func (f *Farm) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", f.handleSubmit)
	mux.HandleFunc("GET /jobs", f.handleList)
	mux.HandleFunc("GET /jobs/{id}", f.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", f.handleCancel)
	mux.HandleFunc("GET /farm", f.handleFarm)
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	return mux
}

// maxSpecBytes caps a submit body; a job spec is a few hundred bytes.
const maxSpecBytes = 64 << 10

func (f *Farm) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sp Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "bad spec: "+err.Error())
		return
	}
	id, err := f.Submit(sp)
	switch {
	case errors.Is(err, ErrQueueFull):
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
	default:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
	}
}

func (f *Farm) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.Snapshot().Jobs)
}

func (f *Farm) handleGet(w http.ResponseWriter, r *http.Request) {
	st, ok := f.Status(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (f *Farm) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := f.Cancel(id); err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "cancel requested"})
}

func (f *Farm) handleFarm(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.Snapshot())
}

func (f *Farm) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if f.Snapshot().Draining {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": strings.TrimSpace(msg)})
}
