package obs

import (
	"encoding/json"
	"net/http"
	"sync"

	"tofumd/internal/des"
	"tofumd/internal/health"
	"tofumd/internal/metrics"
)

// The live run-status endpoint. A StatusServer holds the latest snapshot of
// a run in flight — current step, per-LP engine progress, cached health
// state — and serves it as JSON over HTTP. The run's driver goroutine pushes
// updates at step boundaries via Observe; HTTP handler goroutines only read
// the cached copy under the server's mutex, so nothing on the request path
// ever touches simulation state directly. That indirection matters for the
// health.Tracker in particular: the tracker is NOT concurrency-safe, so
// Observe copies the few fields the endpoint reports while it runs on the
// driver goroutine, and the handler never sees the tracker itself.
//
// A nil *StatusServer is a valid disabled server (the -status flag off):
// every method nil-checks the receiver first, so call sites wire it
// unconditionally.

// LPStatus is one LP's cumulative progress in a Status snapshot.
type LPStatus struct {
	LP                 int     `json:"lp"`
	Events             int64   `json:"events"`
	Epochs             int64   `json:"epochs"`
	Sends              int64   `json:"sends"`
	Staged             int64   `json:"staged"`
	BarrierWaitSeconds float64 `json:"barrier_wait_seconds"`
}

// EngineStatus is the event engine's progress in a Status snapshot. Absent
// (null) until the driver's first Observe with a profile.
type EngineStatus struct {
	Lookahead        float64    `json:"lookahead"`
	Profiled         bool       `json:"profiled"`
	Epochs           int64      `json:"epochs"`
	LookaheadLimited int64      `json:"lookahead_limited"`
	LPs              []LPStatus `json:"lps"`
}

// HealthStatus is the cached health-tracker state in a Status snapshot.
// Absent (null) when the run has no tracker.
type HealthStatus struct {
	Epoch            uint64 `json:"epoch"`
	QuarantinedTNIs  []int  `json:"quarantined_tnis"`
	QuarantinedLinks int    `json:"quarantined_links"`
}

// Status is one JSON snapshot of a run.
type Status struct {
	// Run names the run (binary name or experiment); Step/Steps track
	// progress, Done flips when the driver calls Finish.
	Run   string `json:"run"`
	Step  int    `json:"step"`
	Steps int    `json:"steps"`
	Done  bool   `json:"done"`

	Health *HealthStatus `json:"health"`
	Engine *EngineStatus `json:"engine"`

	// Metrics is the full registry snapshot, taken at request time (the
	// registry is concurrency-safe, unlike the tracker).
	Metrics []metrics.FamilySnapshot `json:"metrics"`
}

// StatusServer caches run state for the HTTP endpoint. Zero value unused;
// construct with NewStatus. Nil receiver = disabled.
type StatusServer struct {
	mu     sync.Mutex
	run    string
	step   int
	steps  int
	done   bool
	engine *EngineStatus
	health *HealthStatus
	reg    *metrics.Registry
}

// NewStatus returns an enabled status server for the named run.
func NewStatus(run string) *StatusServer {
	return &StatusServer{run: run}
}

// Enabled reports whether status is being served.
func (s *StatusServer) Enabled() bool { return s != nil }

// SetRun renames the run (e.g. per benchsuite experiment).
func (s *StatusServer) SetRun(run string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.run = run
	s.mu.Unlock()
}

// SetSteps records the run's planned step count.
func (s *StatusServer) SetSteps(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.steps = n
	s.mu.Unlock()
}

// SetMetrics attaches the registry whose snapshot the endpoint embeds.
func (s *StatusServer) SetMetrics(reg *metrics.Registry) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.reg = reg
	s.mu.Unlock()
}

// Observe pushes a step-boundary update. Call it from the run's driver
// goroutine only: it reads the (not concurrency-safe) health tracker while
// caching the fields the endpoint reports. stats and h may be nil (no
// profile, no tracker); either clears the corresponding section.
func (s *StatusServer) Observe(step int, stats *des.ParallelStats, h *health.Tracker) {
	if s == nil {
		return
	}
	var eng *EngineStatus
	if stats != nil {
		eng = &EngineStatus{
			Lookahead:        stats.Lookahead,
			Profiled:         stats.Profiled,
			Epochs:           stats.Epochs,
			LookaheadLimited: stats.LookaheadLimited,
		}
		for _, lp := range stats.LPs {
			eng.LPs = append(eng.LPs, LPStatus{
				LP: lp.LP, Events: lp.Events, Epochs: lp.Epochs,
				Sends: lp.Sends, Staged: lp.Staged, BarrierWaitSeconds: lp.BarrierWait,
			})
		}
	}
	var hs *HealthStatus
	if h.Enabled() {
		hs = &HealthStatus{
			Epoch:            h.Epoch(),
			QuarantinedTNIs:  h.QuarantinedTNIs(),
			QuarantinedLinks: h.QuarantinedLinkCount(),
		}
	}
	s.mu.Lock()
	s.step = step
	s.engine = eng
	s.health = hs
	s.mu.Unlock()
}

// Finish marks the run complete.
func (s *StatusServer) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
}

// Snapshot returns the current status (metrics snapshotted now).
func (s *StatusServer) Snapshot() Status {
	if s == nil {
		return Status{}
	}
	s.mu.Lock()
	st := Status{
		Run: s.run, Step: s.step, Steps: s.steps, Done: s.done,
	}
	if s.engine != nil {
		e := *s.engine
		e.LPs = append([]LPStatus(nil), s.engine.LPs...)
		st.Engine = &e
	}
	if s.health != nil {
		h := *s.health
		h.QuarantinedTNIs = append([]int(nil), s.health.QuarantinedTNIs...)
		st.Health = &h
	}
	reg := s.reg
	s.mu.Unlock()
	st.Metrics = reg.Snapshot()
	return st
}

// Handler serves the status JSON at / and /status. A nil server serves the
// zero snapshot, so wiring the handler is safe even when status is off.
func (s *StatusServer) Handler() http.Handler {
	if s == nil {
		return statusHandler(nil)
	}
	return statusHandler(s)
}

func statusHandler(s *StatusServer) http.Handler {
	mux := http.NewServeMux()
	serve := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
	mux.HandleFunc("/", serve)
	mux.HandleFunc("/status", serve)
	return mux
}
