// Command benchsuite regenerates the paper's tables and figures on the
// simulated substrate and prints them in the paper's layout. By default it
// runs scaled-down configurations that finish in minutes; -full selects
// paper-sized parameters. -json additionally writes one machine-readable
// BENCH_<experiment>.json per experiment for the benchcmp regression gate.
//
// Example:
//
//	benchsuite -experiment fig12
//	benchsuite -experiment all -full
//	benchsuite -experiment all -json out/ && benchcmp results/baseline out/
package main

import (
	"flag"
	"fmt"
	"log"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"tofumd/internal/bench"
	"tofumd/internal/faultinject"
	"tofumd/internal/metrics"
	"tofumd/internal/obs"
	"tofumd/internal/trace"
)

// experimentOrder is the canonical run order; it doubles as the known-name
// list that -experiment values are validated against.
var experimentOrder = []string{
	"table1", "fig6", "fig8", "fig11", "fig12", "fig13", "table3", "fig14", "fig15", "ablations", "faults", "failstop", "lbm",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchsuite: ")
	var (
		experiment = flag.String("experiment", "all",
			"which experiment: all, "+strings.Join(experimentOrder, ", "))
		full       = flag.Bool("full", false, "paper-scale parameters (slow)")
		steps      = flag.Int("steps", 0, "override step count")
		traceFile  = flag.String("trace", "", "write a Chrome trace-event JSON of the fabric-level experiments to this file")
		jsonDir    = flag.String("json", "", "write BENCH_<experiment>.json artifacts into this directory")
		metFile    = flag.String("metrics", "", "dump the metrics registry to this file at exit (.json for JSON, text otherwise)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for long -full runs")
		faultsStr  = flag.String("faults", "", `fault injection spec for the raw-fabric experiments, e.g. "drop=0.01,seed=7"`)
		statusAddr = flag.String("status", "", "serve a live JSON run-status endpoint on this address (GET /status; reports the experiment in flight)")
	)
	flag.Parse()
	faults, err := faultinject.ParseSpec(*faultsStr)
	if err != nil {
		log.Fatal(err)
	}
	opt := bench.Options{Full: *full, Steps: *steps, Faults: faults}
	if *traceFile != "" {
		opt.Rec = trace.NewRecorder()
	}
	if *metFile != "" || *statusAddr != "" {
		opt.Met = metrics.New()
	}
	if *pprofAddr != "" {
		// Bind first so a bad address fails the run instead of a background
		// goroutine logging after we already claimed the endpoint is up.
		ln, addr, err := obs.Listen(*pprofAddr)
		if err != nil {
			log.Fatalf("pprof: %v", err)
		}
		log.Printf("pprof listening on http://%s/debug/pprof/", addr)
		go func() {
			if err := obs.Serve(ln, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}
	var status *obs.StatusServer
	if *statusAddr != "" {
		status = obs.NewStatus("benchsuite")
		status.SetMetrics(opt.Met)
		ln, addr, err := obs.Listen(*statusAddr)
		if err != nil {
			log.Fatalf("status: %v", err)
		}
		log.Printf("status listening on http://%s/status", addr)
		go func() {
			if err := obs.Serve(ln, status.Handler()); err != nil {
				log.Printf("status server: %v", err)
			}
		}()
	}

	known := map[string]bool{"all": true}
	for _, e := range experimentOrder {
		known[e] = true
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*experiment, ",") {
		name := strings.TrimSpace(e)
		if name == "" {
			continue
		}
		if !known[name] {
			log.Fatalf("unknown experiment %q (known: all, %s)", name, strings.Join(experimentOrder, ", "))
		}
		want[name] = true
	}
	if len(want) == 0 {
		log.Fatalf("no experiments requested")
	}
	all := want["all"]
	if all {
		status.SetSteps(len(experimentOrder))
	} else {
		status.SetSteps(len(want))
	}
	done := 0
	run := func(name string, fn func() (string, *bench.Artifact, error)) {
		if !all && !want[name] {
			return
		}
		status.SetRun("benchsuite/" + name)
		status.Observe(done, nil, nil)
		start := time.Now()
		out, art, err := fn()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println(out)
		if art != nil {
			if tbl := bench.FormatTargets(art); tbl != "" {
				fmt.Println("paper targets:\n" + tbl)
			}
		}
		fmt.Printf("[%s regenerated in %.1fs]\n\n", name, time.Since(start).Seconds())
		if *jsonDir != "" && art != nil {
			if err := art.WriteFile(*jsonDir); err != nil {
				log.Fatalf("%s: writing artifact: %v", name, err)
			}
		}
		done++
		status.Observe(done, nil, nil)
	}

	run("table1", func() (string, *bench.Artifact, error) {
		// The 65K/768-node geometry: cubic sub-box side 2.94, ghost cutoff
		// 2.8 (Table 2).
		r := bench.Table1(2.94, 2.8)
		return r.Format(), r.Artifact(opt), nil
	})
	run("fig6", func() (string, *bench.Artifact, error) {
		r, err := bench.Fig6(opt)
		return r.Format(), r.Artifact(opt), err
	})
	run("fig8", func() (string, *bench.Artifact, error) {
		r, err := bench.Fig8(opt)
		return r.Format(), r.Artifact(opt), err
	})
	run("fig11", func() (string, *bench.Artifact, error) {
		r, err := bench.Fig11(opt)
		return r.Format(), r.Artifact(opt), err
	})
	run("fig12", func() (string, *bench.Artifact, error) {
		r, err := bench.Fig12(opt)
		return r.Format(), r.Artifact(opt), err
	})
	var fig13 *bench.Fig13Result
	run("fig13", func() (string, *bench.Artifact, error) {
		r, err := bench.Fig13(opt)
		if err == nil {
			fig13 = &r
		}
		return r.Format(), r.Artifact(opt), err
	})
	run("table3", func() (string, *bench.Artifact, error) {
		if fig13 == nil {
			r, err := bench.Fig13(opt)
			if err != nil {
				return "", nil, err
			}
			fig13 = &r
		}
		return fig13.FormatTable3(), fig13.Table3Artifact(opt), nil
	})
	run("fig14", func() (string, *bench.Artifact, error) {
		r, err := bench.Fig14(opt)
		return r.Format(), r.Artifact(opt), err
	})
	run("fig15", func() (string, *bench.Artifact, error) {
		r, err := bench.Fig15(opt)
		return r.Format(), r.Artifact(opt), err
	})
	run("ablations", func() (string, *bench.Artifact, error) {
		r, err := bench.Ablations(opt)
		return r.Format(), r.Artifact(opt), err
	})
	run("faults", func() (string, *bench.Artifact, error) {
		r, err := bench.Faults(opt)
		return r.Format(), r.Artifact(opt), err
	})
	run("failstop", func() (string, *bench.Artifact, error) {
		r, err := bench.Failstop(opt)
		return r.Format(), r.Artifact(opt), err
	})
	run("lbm", func() (string, *bench.Artifact, error) {
		r, err := bench.Lbm(opt)
		return r.Format(), r.Artifact(opt), err
	})

	if opt.Rec != nil {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := opt.Rec.WriteChrome(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Trace written to %s (load in ui.perfetto.dev or chrome://tracing)\n\n", *traceFile)
		fmt.Print(opt.Rec.Summarize().Format())
	}
	if opt.Met != nil && *metFile != "" {
		if err := opt.Met.WriteFile(*metFile); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Metrics written to %s\n", *metFile)
	}
	status.Finish()
}
