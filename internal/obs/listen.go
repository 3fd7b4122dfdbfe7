// Package obs is the scaling-diagnosis layer: the pieces that explain
// *where* a run's parallelism goes. It builds on the existing trace and
// metrics plumbing with three coordinated tools:
//
//   - the critical-path analyzer (Analyze, Explain), which walks the trace
//     Recorder's per-message timing chains, extracts the longest dependency
//     chain through the round in virtual time, and derives an Amdahl-style
//     bound on achievable parallel speedup;
//   - the live run-status HTTP endpoint (StatusServer), serving JSON
//     snapshots of the metrics registry, health-tracker state, current
//     step and event count while a run is in flight;
//   - the shared bind-first HTTP listener helpers (Listen/Serve, and Start
//     over both) behind the -status and -pprof flags of the binaries.
//
// Everything here only observes: nothing in this package advances virtual
// time or changes simulation results.
package obs

import (
	"log"
	"net"
	"net/http"
	"time"
)

// The limits of every server Serve builds. A request body is capped at
// maxBodyBytes: the endpoints read small JSON documents, and a handler that
// reads past the cap gets an error instead of buffering an unbounded body.
// There is no write timeout, because /debug/pprof/profile streams for as
// long as its seconds argument asks.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxBodyBytes      = 1 << 20
)

// Listen binds addr (host:port; port 0 picks a free one) immediately and
// returns the listener plus its resolved address. Binding synchronously is
// the point: startup failures — port in use, bad address, missing
// privilege — surface as an error the caller can act on, instead of a log
// line from a background goroutine after the caller already reported the
// endpoint as up. Hand the listener to Serve on a goroutine.
func Listen(addr string) (net.Listener, string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	return l, l.Addr().String(), nil
}

// Serve serves h (nil means http.DefaultServeMux, where net/http/pprof
// registers) on l until the listener closes, returning the server's
// terminal error. Callers typically run `go Serve(...)` after a successful
// Listen and log the returned error.
func Serve(l net.Listener, h http.Handler) error {
	return newServer(h).Serve(l)
}

// Start binds addr (Listen), logs "<name> listening on http://<addr><path>"
// and serves h (Serve) from a new goroutine, which logs the server's
// terminal error as "<name> server: <err>". A bind failure is returned
// before anything is logged or served.
func Start(name, addr, path string, h http.Handler) error {
	l, bound, err := Listen(addr)
	if err != nil {
		return err
	}
	log.Printf("%s listening on http://%s%s", name, bound, path)
	go func() {
		if err := Serve(l, h); err != nil {
			log.Printf("%s server: %v", name, err)
		}
	}()
	return nil
}

// newServer wraps h in the limits above.
func newServer(h http.Handler) *http.Server {
	if h == nil {
		h = http.DefaultServeMux
	}
	return &http.Server{
		Handler:           http.MaxBytesHandler(h, maxBodyBytes),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
