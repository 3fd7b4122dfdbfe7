// Command benchsuite regenerates the paper's tables and figures on the
// simulated substrate and prints each experiment's series with the paper
// targets they are held to. By default it runs scaled-down configurations
// that finish in minutes; -full selects paper-sized parameters. -json
// additionally writes one machine-readable BENCH_<experiment>.json per
// experiment for the benchcmp regression gate.
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
	"slices"
	"strings"
	"time"

	"tofumd/internal/bench"
	"tofumd/internal/faultinject"
	"tofumd/internal/metrics"
	"tofumd/internal/obs"
	"tofumd/internal/trace"
)

// names lists every artifact the suite writes in run order; -experiment
// values are validated against it.
func names() []string {
	var out []string
	for _, e := range bench.Experiments {
		out = append(out, e.Names...)
	}
	return out
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchsuite: ")
	known := names()
	var (
		experiment = flag.String("experiment", "all",
			"which experiment: all, "+strings.Join(known, ", "))
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
	// Bind first so a bad address fails the run instead of a background
	// goroutine logging after we already claimed the endpoint is up.
	if *pprofAddr != "" {
		if err := obs.Start("pprof", *pprofAddr, "/debug/pprof/", nil); err != nil {
			log.Fatalf("pprof: %v", err)
		}
	}
	var status *obs.StatusServer
	if *statusAddr != "" {
		status = obs.NewStatus("benchsuite")
		status.SetMetrics(opt.Met)
		if err := obs.Start("status", *statusAddr, "/status", status.Handler()); err != nil {
			log.Fatalf("status: %v", err)
		}
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*experiment, ",") {
		name := strings.TrimSpace(e)
		if name == "" {
			continue
		}
		if name != "all" && !slices.Contains(known, name) {
			log.Fatalf("unknown experiment %q (known: all, %s)", name, strings.Join(known, ", "))
		}
		want[name] = true
	}
	if len(want) == 0 {
		log.Fatalf("no experiments requested")
	}
	// An entry runs when any of its artifacts is selected, and prints and
	// writes only the selected ones.
	selected := func(name string) bool { return want["all"] || want[name] }
	var runs []bench.Experiment
	for _, e := range bench.Experiments {
		if slices.ContainsFunc(e.Names, selected) {
			runs = append(runs, e)
		}
	}
	status.SetSteps(len(runs))
	for done, e := range runs {
		name := strings.Join(e.Names, ",")
		status.SetRun("benchsuite/" + name)
		status.Observe(done, nil, nil)
		start := time.Now()
		arts, err := e.Run(opt)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		for _, a := range arts {
			if !selected(a.Experiment) {
				continue
			}
			fmt.Println(bench.Format(a))
			if tbl := bench.FormatTargets(a); tbl != "" {
				fmt.Println("paper targets:\n" + tbl)
			}
			if *jsonDir != "" {
				if err := a.WriteFile(*jsonDir); err != nil {
					log.Fatalf("%s: writing artifact: %v", a.Experiment, err)
				}
			}
		}
		fmt.Printf("[%s regenerated in %.1fs]\n\n", name, time.Since(start).Seconds())
		status.Observe(done+1, nil, nil)
	}

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
