// Command benchmark is tofumd's host-clock benchmark: six workloads, each a
// sequence of equal ops, measured end to end with tracing off, then once
// more with a metrics registry and the benchmark's own span recorder on,
// followed by probes that time single layers from outside. See README.md.
//
// Virtual time (what Fugaku would spend) is covered by internal/bench; this
// program measures what the simulator costs the host that runs it, and
// checks that virtual results do not move while it does.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tofumd/internal/core"
	"tofumd/internal/metrics"
	"tofumd/internal/vec"
)

const repeats = 3

// workloads returns the six workloads at benchmark or smoke-test size.
func workloads(quick bool) []*workload {
	dense := vec.I3{X: 2, Y: 2, Z: 2}
	lj := mdShape{kind: core.LJ, atoms: 32000, tile: dense, stepsPerOp: 20, probeFullList: true}
	eam := mdShape{kind: core.EAM, atoms: 32000, tile: dense, stepsPerOp: 20}
	strong := mdShape{kind: core.LJ, atoms: 8192, tile: strongShape(false), stepsPerOp: 20, probeCommStack: true}
	plane := lbmShape{tile: dense, perRank: 16, stepsPerOp: 10}
	farm := farmShape{atoms: []int{1500, 2000, 2500}, steps: 40, nodes: "2x2x2"}
	if quick {
		small := vec.I3{X: 1, Y: 2, Z: 2}
		lj.atoms, lj.tile = 4000, small
		eam.atoms, eam.tile = 2048, small
		strong.atoms, strong.tile = 1024, strongShape(true)
		plane = lbmShape{tile: small, perRank: 6, stepsPerOp: 4}
		farm = farmShape{atoms: []int{500, 600, 700}, steps: 40, nodes: "1x2x2"}
	}
	ws := []*workload{
		{name: "lj_dense", fixedOps: 4, seedWarmup: true, build: buildMD(lj),
			why: "kernel-bound: ~1000 atoms/rank, where potential and neighbor work shows and comm-stack work should not"},
		{name: "eam_dense", fixedOps: 2, seedWarmup: true, build: buildMD(eam),
			why: "a different kernel (spline tables, three passes, two in-pair exchanges, check-yes allreduce): LJ-only changes must not move it"},
		{name: "lj_strong", fixedOps: 3, seedWarmup: true, build: buildMD(strong),
			why: "the paper's regime, 32 atoms/rank on 256 ranks: halo, utofu, tofu, des and allocation dominate, kernels are ~20%"},
		{name: "model_768", fixedOps: 2, warmup: 0, build: buildModel(modelShape(quick)),
			why: "fabric and event engine only on the full 8x12x8 tile, both the mpi (ref) and one-sided (opt) paths; the one workload with a paper reference"},
		{name: "lbm_plane", fixedOps: 3, seedWarmup: true, build: buildLBM(plane),
			why: "the same halo stack used differently: six large exact-size face planes per rank, so a small-message gain that costs large planes shows"},
		{name: "farm_closed", fixedOps: 6, minOps: 18, block: 3, warmup: 3, clients: farmClients, build: buildFarm(farm),
			why: "the service path: per-segment rebuild, restart capture and encode, journal, scheduler, HTTP; closed loop, 2 clients"},
	}
	for _, w := range ws {
		if w.clients == 0 {
			w.clients = 1
		}
		if w.block == 0 {
			w.block = 1
		}
		if quick {
			w.fixedOps, w.minOps, w.warmup = w.block, w.block, min(w.warmup, 1)
		}
		if w.minOps < w.fixedOps {
			w.minOps = w.fixedOps
		}
	}
	return ws
}

// hostInfo says where the numbers were taken; results from different hosts
// do not share a baseline.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func main() {
	var (
		wlName  = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int("seed", 1, "sets the warm-up length (MD, LBM) and the job-size sequence (farm)")
		seconds = flag.Float64("seconds", 9, "timed seconds per workload, split over the 3 repeats")
		traceOn = flag.Int("trace", 1, "0: untraced repeats only (end-to-end metrics); 1: also the traced pass and the per-layer probes")
		quick   = flag.Bool("quick", false, "tiny sizes for the smoke test; results are never comparable")
		outDir  = flag.String("out", "benchmark/out", "directory for results.json, trace.json and self_time.json")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *seed < 0 || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fatal(fmt.Errorf("need -seed >= 0, -seconds > 0 and -trace 0 or 1"))
	}
	rep, err := runAll(options{
		workload: *wlName, seed: *seed, seconds: *seconds,
		trace: *traceOn == 1, quick: *quick, outDir: *outDir,
	})
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	if err := rep.write(*outDir); err != nil {
		fatal(err)
	}
	if len(rep.Workloads) == 1 {
		// The driver's contract: the last line is one JSON object.
		line, err := json.Marshal(rep.Workloads[0].driverLine(*traceOn == 1))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

type options struct {
	workload string
	seed     int
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
}

// runAll measures the selected workloads. Repeats are interleaved across
// workloads (A B C ..., A B C ...) so slow drift of the host lands on all of
// them alike; the traced pass comes last and feeds no end-to-end number.
func runAll(o options) (*report, error) {
	// One process, at most two procs: the numbers are per host class, and
	// two procs is what the parallel paths need to show at all.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var selected []*workload
	for _, w := range workloads(o.quick) {
		if o.workload == "all" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	perRepeat := o.seconds / repeats
	if o.quick {
		perRepeat = 0 // exactly minOps ops
	}
	untraced := map[string][]*repeatResult{}
	for r := 0; r < repeats; r++ {
		for _, w := range selected {
			e := &env{seed: o.seed, quick: o.quick, tmp: tmp}
			if r == 0 {
				// One discarded build: the first pays for page faults
				// and lazy initialisation no later one sees.
				inst, err := w.build(e, w)
				if err != nil {
					return nil, fmt.Errorf("%s: setup: %w", w.name, err)
				}
				inst.close()
			}
			res, err := runRepeat(w, e, perRepeat, nil)
			if err != nil {
				return nil, err
			}
			untraced[w.name] = append(untraced[w.name], res)
		}
	}

	rep := &report{
		Host: hostInfo{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		},
		Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Traced: o.trace,
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	for _, w := range selected {
		wr, err := endToEndOf(w, untraced[w.name])
		if err != nil {
			return nil, err
		}
		if o.trace {
			if err := tracedPass(w, o, perRepeat, tmp, tr, untraced[w.name], wr); err != nil {
				return nil, err
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if tr != nil {
		rep.spans = tr.all()
	}
	return rep, nil
}

// endToEndOf turns a workload's untraced repeats into its end-to-end
// metrics: percentiles over the pooled ops, medians over the repeats.
func endToEndOf(w *workload, rs []*repeatResult) (*workloadResult, error) {
	wr := &workloadResult{
		Name: w.name, Why: w.why, Correct: true,
		Metrics: map[string]value{}, Omitted: map[string]string{},
	}
	var pooled, setups, rates, heaps []float64
	for _, r := range rs {
		ok := r.passed()
		pooled = append(pooled, ok...)
		setups = append(setups, r.setupS)
		rates = append(rates, float64(len(ok))/r.wallS)
		heaps = append(heaps, r.liveHeapMB)
		wr.Attempted += len(r.samples)
		wr.Failed += len(r.samples) - len(ok)
		for _, s := range r.samples {
			if s.err != nil && len(wr.Errors) < 5 {
				wr.Errors = append(wr.Errors, fmt.Sprintf("client %d op %d: %v", s.client, s.i, s.err))
			}
		}
	}
	wr.Ops = len(pooled)
	if wr.Ops == 0 {
		return nil, fmt.Errorf("%s: no op passed its sanity check: %v", w.name, wr.Errors)
	}
	wr.setSpread("setup_s", spreadOf(setups))
	wr.setSpread("ops_per_s", spreadOf(rates))
	wr.setSpread("live_heap_mb", spreadOf(heaps))
	// Percentiles are taken over the pooled ops; the spread beside them is
	// that of the same percentile taken repeat by repeat.
	pooledWithSpread := func(name string, p float64) {
		var per []float64
		for _, r := range rs {
			per = append(per, percentile(r.passed(), p))
		}
		sp := spreadOf(per)
		sp.med = percentile(pooled, p)
		wr.setSpread(name, sp)
	}
	pooledWithSpread("op_ms_p50", 50)
	if _, ok := tailPercentile(len(pooled)); ok {
		// The name is fixed at p90; more samples never move it higher.
		pooledWithSpread("op_ms_p90", 90)
	}
	wr.set("fail_frac", float64(wr.Failed)/float64(wr.Attempted))

	wr.Fingerprint = rs[0].fingerprint()
	drift := 0.0
	for _, r := range rs[1:] {
		if r.fingerprint() != wr.Fingerprint {
			drift = 1
		}
	}
	wr.set("virt_drift", drift)
	if v, ok := rs[0].extra["paper_err"]; ok {
		wr.set("paper_err", v)
	}
	if wr.Failed > 0 || drift != 0 {
		wr.Correct = false
	}
	return wr, nil
}

// tracedPass runs one more repeat with a registry and the span recorder on,
// then the workload's probes, and fills in the per-layer metrics.
func tracedPass(w *workload, o options, perRepeat float64, tmp string, tr *tracer, untraced []*repeatResult, wr *workloadResult) error {
	root := tr.root("workload", w.name)
	defer root.finish()
	e := &env{seed: o.seed, quick: o.quick, tmp: tmp, reg: metrics.New(), root: root}
	layer := map[string]float64{}
	var probeErrs []error
	opP50 := wr.Metrics["op_ms_p50"].Value
	res, err := runRepeat(w, e, perRepeat, func(inst instance, r *repeatResult) {
		for k, v := range r.extra {
			layer[k] = v
		}
		pr, ok := inst.(prober)
		if !ok {
			return
		}
		p := &probeCtx{
			w: w, e: e, root: root.child("probes"), layer: layer, omitted: wr.Omitted,
			opP50ms: opP50, setupMS: wr.Metrics["setup_s"].Value * 1e3,
			budget: 150 * time.Millisecond, timedFrom: r.timedFrom,
		}
		if o.quick {
			p.budget = 0
		}
		pr.probe(p)
		p.root.finish()
		probeErrs = p.errs
	})
	if err != nil {
		return err
	}
	if len(probeErrs) > 0 {
		return fmt.Errorf("%s: probe: %w", w.name, probeErrs[0])
	}
	// Tracing must not change what the simulator computes.
	if fp := res.fingerprint(); fp != wr.Fingerprint {
		wr.set("virt_drift", 1)
		wr.Correct = false
		wr.Errors = append(wr.Errors, fmt.Sprintf("traced pass fingerprint %s differs from untraced %s", fp, wr.Fingerprint))
	}

	var virt []float64
	for _, s := range res.fixed {
		virt = append(virt, s.virt.sec)
	}
	layer["virt.ms_per_op"] = mean(virt) * 1e3
	layer["metrics.overhead_frac"] = median(res.passed())/opP50 - 1

	// The runtime's numbers come from the untraced repeats only.
	var alloc, mallocs, cycles, pause []float64
	for _, r := range untraced {
		n := float64(len(r.samples))
		alloc = append(alloc, r.mem.allocMB/n)
		mallocs = append(mallocs, r.mem.mallocs/n)
		cycles = append(cycles, r.mem.gcCycles/n)
		pause = append(pause, r.mem.gcPauseMS/n)
	}
	layer["runtime.alloc_mb_per_op"] = median(alloc)
	layer["runtime.mallocs_per_op"] = median(mallocs)
	layer["runtime.gc_cycles_per_op"] = median(cycles)
	layer["runtime.gc_pause_ms_per_op"] = median(pause)
	for k, v := range layer {
		wr.set(k, v)
	}
	return nil
}

// write stores the report, and the trace and self-time table if there was a
// traced pass, under dir.
func (rep *report) write(dir string) error {
	if err := writeJSON(filepath.Join(dir, "results.json"), rep); err != nil {
		return err
	}
	if rep.spans == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := writeChrome(f, rep.spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "self_time.json"), selfTimes(rep.spans))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
