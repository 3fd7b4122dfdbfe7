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
	"strings"

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
	"tofumd/internal/vec"
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
		inFile     = flag.String("in", "", "LAMMPS-style input deck (overrides potential/atoms/steps flags)")
		dumpFile   = flag.String("dump", "", "write an extended-XYZ trajectory to this file")
		dumpEv     = flag.Int("dumpevery", 20, "dump interval in steps")
		traceFile  = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
		metFile    = flag.String("metrics", "", "dump the metrics registry to this file at exit (.json for JSON, text otherwise)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		faultsStr  = flag.String("faults", "", `fault injection spec, e.g. "drop=0.01,seed=7" (see package faultinject)`)
		ckptEvery  = flag.Int("checkpoint-every", 0, "write a checkpoint every N steps (0 = off)")
		ckptFile   = flag.String("checkpoint", "tofumd.restart", "checkpoint file written by -checkpoint-every")
		restartIn  = flag.String("restart", "", "resume from a checkpoint file written by -checkpoint-every")
		par        = flag.Int("par", 1, "logical processes the event engine shards the fabric into (N <= 1: serial loop; results bit-identical at every N)")
		planOnly   = flag.Bool("plan", false, "print the static halo neighbor-plan summary (pattern, link graph, rounds) and exit without running")
		statusAddr = flag.String("status", "", "serve a live JSON run-status endpoint on this address (e.g. localhost:8080, port 0 picks one; GET /status)")
		explain    = flag.Bool("explain", false, "print the scaling-diagnosis report (per-LP engine profile + critical path) after the run")
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
		status = obs.NewStatus("mdsim")
		status.SetMetrics(met)
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
	shape, err := parseShape(*nodes)
	if err != nil {
		log.Fatal(err)
	}
	if *inFile != "" {
		if *restartIn != "" || *ckptEvery > 0 {
			log.Fatal("-restart and -checkpoint-every apply to the flag-driven path, not -in decks")
		}
		runDeck(*inFile, shape, *variant, faults, rec, met, *par, status, *explain)
		writeTrace(*traceFile, rec)
		finishMetrics(*metFile, met)
		return
	}
	kind := core.LJ
	if *potName == "eam" {
		kind = core.EAM
	} else if *potName != "lj" {
		log.Fatalf("unknown potential %q", *potName)
	}
	v, err := variantByName(*variant)
	if err != nil {
		log.Fatal(err)
	}

	wl := core.Workload{
		Name:      fmt.Sprintf("%s-%d", kind, *atoms),
		Kind:      kind,
		Atoms:     *atoms,
		FullShape: shape,
		Steps:     *steps,
	}
	spec := core.RunSpec{
		Workload:    wl,
		TileShape:   shape,
		Variant:     v,
		Steps:       *steps,
		NewtonOff:   !*newton,
		ThermoEvery: *thermoEv,
		Recorder:    rec,
		Metrics:     met,
		Faults:      faults,
		ParallelLPs: *par,
		Profile:     *explain || status.Enabled(),
	}
	if *planOnly {
		plan, err := core.Plan(spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(plan)
		return
	}
	status.SetSteps(*steps)
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
		f, err := os.Open(*restartIn)
		if err != nil {
			log.Fatal(err)
		}
		snap, err := restart.Read(f)
		f.Close()
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
				if err := writeCheckpoint(path, s, step); err != nil {
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

	fmt.Printf("tofumd (%s potential, %s variant) on %d nodes / %d ranks\n",
		kind, v.Name, shape.Prod(), res.Ranks)
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
	if kind == core.EAM {
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
// per-LP Chrome counter tracks into the trace, pushes a status snapshot, and
// returns the engine profile for -explain. A nil recorder or status server
// skips that part.
func observeStep(s *sim.Simulation, step int, rec *trace.Recorder, status *obs.StatusServer) *des.ParallelStats {
	st, _ := s.ParallelStats()
	obs.SampleLPCounters(rec, st, s.Now())
	status.Observe(step, &st, s.Health())
	return &st
}

// writeCheckpoint captures the simulation state and writes it atomically:
// the CRC-trailed file appears under its final name only once complete, so
// a crash mid-write can never leave a truncated checkpoint behind.
func writeCheckpoint(path string, s *sim.Simulation, step int) error {
	snap := restart.Capture(s, step)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := restart.Write(f, snap); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
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

// runDeck executes a parsed LAMMPS-style input file on the machine.
func runDeck(path string, shape vec.I3, variantName string, faults faultinject.Spec,
	rec *trace.Recorder, met *metrics.Registry, par int, status *obs.StatusServer, explain bool) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	deck, err := script.Parse(f)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	cfg, steps, err := deck.ToConfig()
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	v, err := variantByName(variantName)
	if err != nil {
		log.Fatal(err)
	}
	m, err := sim.NewMachine(shape)
	if err != nil {
		log.Fatal(err)
	}
	s, err := sim.New(m, v, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	if rec != nil {
		s.SetRecorder(rec)
	}
	if met != nil {
		s.SetMetrics(met)
	}
	if faults.Enabled() {
		s.SetFaults(faultinject.New(faults))
	}
	if err := s.SetParallel(par); err != nil {
		log.Fatal(err)
	}
	s.SetProfiling(explain || status.Enabled())
	status.SetSteps(steps)
	var lastStats *des.ParallelStats
	for i := 1; i <= steps; i++ {
		s.Step()
		lastStats = observeStep(s, i, rec, status)
	}
	status.Finish()

	kind := core.LJ
	unit := "tau/day"
	if cfg.UnitsStyle == units.Metal {
		kind = core.EAM // metal-units perf metric: simulated us/day
		unit = "us/day"
	}
	fmt.Printf("tofumd < %s (%s variant) on %d nodes / %d ranks\n",
		path, v.Name, shape.Prod(), len(s.Ranks()))
	fmt.Printf("%d atoms, %d steps\n\n", s.TotalAtoms(), steps)
	if len(s.Thermo) > 0 {
		fmt.Println("Step  Temp        E_pair      Press")
		for _, t := range s.Thermo {
			fmt.Printf("%-5d %-11.6g %-11.6g %-11.6g\n", t.Step, t.Temperature, t.PEPerAtom, t.Pressure)
		}
		fmt.Println()
	}
	bd := trace.Merge(s.Breakdowns())
	fmt.Println("MPI task timing breakdown (virtual seconds, rank average):")
	fmt.Println(bd.Report())
	elapsed := s.ElapsedMax()
	fmt.Printf("Performance: %.6g %s (virtual wall clock %.6f s)\n",
		core.PerfPerDay(kind, steps, cfg.Dt, elapsed), unit, elapsed)
	if explain {
		fmt.Println("\nScaling diagnosis:")
		fmt.Print(obs.Explain(lastStats, rec, 10))
	}
}

func parseShape(s string) (vec.I3, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 3 {
		return vec.I3{}, fmt.Errorf("shape %q: want XxYxZ", s)
	}
	var out [3]int
	for i, p := range parts {
		if _, err := fmt.Sscanf(p, "%d", &out[i]); err != nil {
			return vec.I3{}, fmt.Errorf("shape %q: %v", s, err)
		}
	}
	return vec.I3{X: out[0], Y: out[1], Z: out[2]}, nil
}

func variantByName(name string) (sim.Variant, error) {
	for _, v := range sim.StepByStepVariants() {
		if v.Name == name {
			return v, nil
		}
	}
	return sim.Variant{}, fmt.Errorf("unknown variant %q", name)
}
