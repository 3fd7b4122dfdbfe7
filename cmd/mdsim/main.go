// Command mdsim runs one MD simulation on the simulated Fugaku machine and
// prints a LAMMPS-style report: thermo samples plus the MPI task timing
// breakdown. It is the `lmp` stand-in of this reproduction.
//
// Example:
//
//	mdsim -potential lj -atoms 65536 -nodes 4x6x4 -variant opt -steps 99
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	_ "net/http/pprof"
	"os"

	"tofumd/internal/core"
	"tofumd/internal/des"
	"tofumd/internal/faultinject"
	"tofumd/internal/md/dump"
	"tofumd/internal/md/restart"
	"tofumd/internal/md/sim"
	"tofumd/internal/metrics"
	"tofumd/internal/obs"
	"tofumd/internal/script"
	"tofumd/internal/trace"
	"tofumd/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mdsim: ")
	var (
		potName    = flag.String("potential", "lj", "potential: lj or eam")
		atoms      = flag.Int("atoms", 65536, "approximate atom count")
		nodes      = flag.String("nodes", "4x6x4", "node torus shape XxYxZ")
		variant    = flag.String("variant", "opt", "code variant: ref, mpi-p2p, utofu-3stage, 4tni-p2p, 6tni-p2p, opt")
		steps      = flag.Int("steps", 99, "MD steps")
		thermoEv   = flag.Int("thermo", 20, "thermo output interval (0 = off)")
		newton     = flag.Bool("newton", true, "Newton's 3rd law")
		inFile     = flag.String("in", "", "LAMMPS-style input deck (overrides potential/atoms/steps/thermo/newton flags)")
		dumpFile   = flag.String("dump", "", "write an extended-XYZ trajectory to this file")
		dumpEv     = flag.Int("dumpevery", 20, "dump interval in steps")
		traceFile  = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
		metFile    = flag.String("metrics", "", "dump the metrics registry to this file at exit (.json for JSON, text otherwise)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		faultsStr  = flag.String("faults", "", `fault injection spec, e.g. "drop=0.01,seed=7" (see package faultinject)`)
		ckptEvery  = flag.Int("checkpoint-every", 0, "write a checkpoint every N steps (0 = off)")
		ckptFile   = flag.String("checkpoint", "tofumd.restart", "checkpoint file written by -checkpoint-every")
		restartIn  = flag.String("restart", "", "resume from a checkpoint file written by -checkpoint-every")
		planOnly   = flag.Bool("plan", false, "print the static halo neighbor-plan summary (pattern, link graph, rounds) and exit without running")
		statusAddr = flag.String("status", "", "serve a live JSON run-status endpoint on this address (e.g. localhost:8080, port 0 picks one; GET /status)")
		explain    = flag.Bool("explain", false, "print the scaling-diagnosis report (event total + critical path) after the run")
	)
	flag.Parse()

	faults, err := faultinject.ParseSpec(*faultsStr)
	if err != nil {
		log.Fatal(err)
	}

	var rec *trace.Recorder
	if *traceFile != "" || *explain {
		// -explain needs the message trace for the critical path even when no
		// trace file is written.
		rec = trace.NewRecorder()
	}
	var met *metrics.Registry
	if *metFile != "" || *statusAddr != "" {
		met = metrics.New()
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
		status = obs.NewStatus("mdsim")
		status.SetMetrics(met)
		if err := obs.Start("status", *statusAddr, "/status", status.Handler()); err != nil {
			log.Fatalf("status: %v", err)
		}
	}
	shape, err := core.ParseShape(*nodes)
	if err != nil {
		log.Fatal(err)
	}
	v, err := sim.VariantByName(*variant)
	if err != nil {
		log.Fatal(err)
	}
	spec := core.RunSpec{
		TileShape:   shape,
		Variant:     v,
		Steps:       *steps,
		NewtonOff:   !*newton,
		ThermoEvery: *thermoEv,
		Recorder:    rec,
		Metrics:     met,
		Faults:      faults,
	}
	var title string
	if *inFile != "" {
		// The deck's geometry, potential, steps, thermo and newton settings
		// win over the matching flags.
		cfg, n, err := readDeck(*inFile)
		if err != nil {
			log.Fatalf("%s: %v", *inFile, err)
		}
		spec.Config, spec.Steps = &cfg, n
		if cfg.UnitsStyle == units.Metal {
			spec.Workload.Kind = core.EAM // metal-units perf metric: simulated us/day
		}
		title = fmt.Sprintf("< %s (%s variant)", *inFile, v.Name)
	} else {
		kind, err := core.ParseKind(*potName)
		if err != nil {
			log.Fatal(err)
		}
		spec.Workload = core.Workload{
			Name:      fmt.Sprintf("%s-%d", kind, *atoms),
			Kind:      kind,
			Atoms:     *atoms,
			FullShape: shape,
			Steps:     *steps,
		}
		title = fmt.Sprintf("(%s potential, %s variant)", kind, v.Name)
	}
	if *planOnly {
		plan, err := core.Plan(spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(plan)
		return
	}
	status.SetSteps(spec.Steps)
	closeDump := func() error { return nil }
	if *dumpFile != "" {
		f, err := os.Create(*dumpFile)
		if err != nil {
			log.Fatal(err)
		}
		w := dump.NewWriter(f)
		closeDump = func() error { return errors.Join(w.Flush(), f.Close()) }
		every := *dumpEv
		if every < 1 {
			every = 1
		}
		spec.Observer = func(s *sim.Simulation, step int) {
			if step%every == 0 {
				if err := w.WriteFrame(s, step); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	if *restartIn != "" {
		snap, err := restart.ReadFile(*restartIn)
		if err != nil {
			log.Fatal(err)
		}
		spec.Restart = snap
		fmt.Printf("Resuming from %s (checkpointed at step %d, %d atoms)\n",
			*restartIn, snap.Step, len(snap.Atoms))
	}
	if *ckptEvery > 0 {
		prev := spec.Observer
		every := *ckptEvery
		path := *ckptFile
		spec.Observer = func(s *sim.Simulation, step int) {
			if prev != nil {
				prev(s, step)
			}
			if step%every == 0 {
				if err := restart.WriteFile(path, restart.Capture(s, step)); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	var lastStats *des.ParallelStats
	prev := spec.Observer
	spec.Observer = func(s *sim.Simulation, step int) {
		if prev != nil {
			prev(s, step)
		}
		lastStats = observeStep(s, step, rec, status)
	}
	res, err := core.Run(spec)
	if err != nil {
		log.Fatal(err)
	}
	if err := closeDump(); err != nil {
		log.Fatalf("dump: %v", err)
	}
	status.Finish()

	fmt.Printf("tofumd %s on %d nodes / %d ranks\n", title, shape.Prod(), res.Ranks)
	fmt.Printf("%d atoms (%.1f per rank), %d steps\n\n", res.Atoms, res.AtomsPerRank, res.Steps)
	if len(res.Thermo) > 0 {
		fmt.Println("Step  Temp        E_pair      Press")
		for _, s := range res.Thermo {
			fmt.Printf("%-5d %-11.6g %-11.6g %-11.6g\n", s.Step, s.Temperature, s.PEPerAtom, s.Pressure)
		}
		fmt.Println()
	}
	fmt.Println("MPI task timing breakdown (virtual seconds, rank average):")
	fmt.Println(res.Breakdown.Report())
	unit := "tau/day"
	if spec.Workload.Kind == core.EAM {
		unit = "us/day"
	}
	fmt.Printf("Performance: %.6g %s (virtual wall clock %.6f s)\n", res.PerfPerDay, unit, res.Elapsed)
	if *explain {
		fmt.Println("\nScaling diagnosis:")
		fmt.Print(obs.Explain(lastStats, rec, 10))
	}
	writeTrace(*traceFile, rec)
	finishMetrics(*metFile, met)
}

// observeStep is the diagnosis layer's step-boundary hook: it samples the
// event count's Chrome counter track into the trace, pushes a status
// snapshot, and returns the event count for -explain. A nil recorder or
// status server skips that part.
func observeStep(s *sim.Simulation, step int, rec *trace.Recorder, status *obs.StatusServer) *des.ParallelStats {
	st, _ := s.ParallelStats()
	obs.SampleLPCounters(rec, st, s.Now())
	status.Observe(step, &st, s.Health())
	return &st
}

// readDeck parses a LAMMPS-style input deck into its run configuration and
// step count.
func readDeck(path string) (sim.Config, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return sim.Config{}, 0, err
	}
	defer f.Close()
	deck, err := script.Parse(f)
	if err != nil {
		return sim.Config{}, 0, err
	}
	return deck.ToConfig()
}

// finishMetrics prints the top-5 metric families as an exit summary and
// dumps the full registry to path; a nil registry or empty path (no
// -metrics flag; -status feeds the registry to the endpoint instead) is a
// no-op.
func finishMetrics(path string, met *metrics.Registry) {
	if met == nil || path == "" {
		return
	}
	fmt.Println("\nTop metrics families:")
	for _, fam := range met.Top(5, "sim_stage_imbalance", "sim_stage_seconds", "fabric_inject_stall", "fabric_tni", "mpi_") {
		fmt.Printf("# %s (%s)\n", fam.Name, fam.Kind)
		for _, s := range fam.Samples {
			if fam.Kind == "histogram" {
				fmt.Printf("  %-12s count=%-8d sum=%-12.6g p50=%-12.6g p99=%.6g\n",
					s.Label, s.Count, s.Sum, s.P50, s.P99)
			} else {
				fmt.Printf("  %-12s %.6g\n", s.Label, s.Value)
			}
		}
	}
	if err := met.WriteFile(path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Metrics written to %s\n", path)
}

// writeTrace emits the recorded events as Chrome trace JSON plus the
// per-rank/per-TNI summary; a nil recorder or empty path (no -trace flag;
// -explain records without writing) is a no-op.
func writeTrace(path string, rec *trace.Recorder) {
	if rec == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := rec.WriteChrome(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTrace written to %s (load in ui.perfetto.dev or chrome://tracing)\n\n", path)
	fmt.Print(rec.Summarize().Format())
}
