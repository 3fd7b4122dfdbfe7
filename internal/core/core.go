// Package core is the public orchestration layer of the reproduction: it
// names the paper's benchmark workloads (Table 2, section 4), runs them
// functionally on a simulated Fugaku tile, and models the largest machine
// scales where holding every atom is infeasible. All results come back as
// LAMMPS-style stage breakdowns plus the simulation-performance metric the
// paper reports (tau/day for lj units, us/day for metal units).
package core

import (
	"fmt"
	"strconv"
	"strings"

	"tofumd/internal/faultinject"
	"tofumd/internal/md/lattice"
	"tofumd/internal/md/potential"
	"tofumd/internal/md/restart"
	"tofumd/internal/md/sim"
	"tofumd/internal/metrics"
	"tofumd/internal/topo"
	"tofumd/internal/trace"
	"tofumd/internal/units"
	"tofumd/internal/vec"
)

// Kind selects the benchmark potential family.
type Kind int

const (
	// LJ is the Lennard-Jones benchmark (lj units, Table 2 left column).
	LJ Kind = iota
	// EAM is the embedded-atom copper benchmark (metal units, right
	// column).
	EAM
)

// String names the kind.
func (k Kind) String() string {
	if k == EAM {
		return "eam"
	}
	return "lj"
}

// ParseKind resolves a potential name, "lj" or "eam".
func ParseKind(name string) (Kind, error) {
	switch name {
	case "lj":
		return LJ, nil
	case "eam":
		return EAM, nil
	}
	return LJ, fmt.Errorf("potential %q: want lj or eam", name)
}

// ParseShape resolves a node shape "XxYxZ"; every dimension must be a
// positive integer.
func ParseShape(s string) (vec.I3, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 3 {
		return vec.I3{}, fmt.Errorf("nodes %q: want XxYxZ", s)
	}
	var out [3]int
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			return vec.I3{}, fmt.Errorf("nodes %q: want XxYxZ: %v", s, err)
		}
		if n <= 0 {
			return vec.I3{}, fmt.Errorf("nodes %q: dimensions must be positive", s)
		}
		out[i] = n
	}
	return vec.I3{X: out[0], Y: out[1], Z: out[2]}, nil
}

// Workload is one paper benchmark configuration at full machine scale.
type Workload struct {
	Name string
	Kind Kind
	// Atoms is the particle count at full machine scale.
	Atoms int
	// FullShape is the paper's node allocation.
	FullShape vec.I3
	// Steps is the paper's step count for the experiment.
	Steps int
}

// The paper's workloads.

// LJSmall is the 65K-atom system on 768 nodes (sections 3 and 4.2).
func LJSmall() Workload {
	return Workload{Name: "lj-65k", Kind: LJ, Atoms: 65536, FullShape: vec.I3{X: 8, Y: 12, Z: 8}, Steps: 99}
}

// LJBig is the 1.7M-atom system on 768 nodes.
func LJBig() Workload {
	return Workload{Name: "lj-1.7m", Kind: LJ, Atoms: 1_700_000, FullShape: vec.I3{X: 8, Y: 12, Z: 8}, Steps: 99}
}

// EAMSmall is the 65K-atom copper system on 768 nodes.
func EAMSmall() Workload {
	return Workload{Name: "eam-65k", Kind: EAM, Atoms: 65536, FullShape: vec.I3{X: 8, Y: 12, Z: 8}, Steps: 99}
}

// EAMBig is the 1.7M-atom copper system on 768 nodes.
func EAMBig() Workload {
	return Workload{Name: "eam-1.7m", Kind: EAM, Atoms: 1_700_000, FullShape: vec.I3{X: 8, Y: 12, Z: 8}, Steps: 99}
}

// StrongScalingAtoms returns the fixed particle counts of the Fig. 13
// strong-scaling runs.
func StrongScalingAtoms(k Kind) int {
	if k == EAM {
		return 3_456_000
	}
	return 4_194_304
}

// WeakScalingAtomsPerCore returns the per-core loads of Fig. 14.
func WeakScalingAtomsPerCore(k Kind) int {
	if k == EAM {
		return 72_000
	}
	return 100_000
}

// NewPotential constructs the benchmark potential of a kind.
func NewPotential(k Kind) (potential.Pair, error) {
	switch k {
	case EAM:
		return potential.NewEAMCu(4.95)
	default:
		return potential.NewLJ(1, 1, 2.5), nil
	}
}

// BaseConfig returns the Table 2 configuration of a kind, without geometry.
func BaseConfig(k Kind) (sim.Config, error) {
	pot, err := NewPotential(k)
	if err != nil {
		return sim.Config{}, err
	}
	switch k {
	case EAM:
		return sim.Config{
			UnitsStyle:  units.Metal,
			Potential:   pot,
			Lat:         lattice.FCCFromConstant(3.615),
			Dt:          0.005,
			Skin:        1.0,
			NeighEvery:  5,
			CheckYes:    true,
			Temperature: 300,
			Seed:        20231112,
			NewtonOn:    true,
		}, nil
	default:
		return sim.Config{
			UnitsStyle:  units.LJ,
			Potential:   pot,
			Lat:         lattice.FCCFromDensity(0.8442),
			Dt:          0.005,
			Skin:        0.3,
			NeighEvery:  20,
			CheckYes:    false,
			Temperature: 1.44,
			Seed:        20231112,
			NewtonOn:    true,
		}, nil
	}
}

// RunSpec describes one functional run: a tile of TileShape nodes stands in
// for a machine of FullShape nodes, holding the same per-rank atom load.
type RunSpec struct {
	Workload  Workload
	TileShape vec.I3
	Variant   sim.Variant
	// Config, when non-nil, is the run's configuration as given (an input
	// deck's): Start uses it in place of BaseConfig plus the geometry
	// Workload derives, and NewtonOff and ThermoEvery do not apply.
	// Workload.Kind still picks the performance unit.
	Config *sim.Config
	// Steps overrides the workload's step count when non-zero.
	Steps int
	// NewtonOff disables Newton's 3rd law (full lists, no reverse stage) —
	// the Fig. 15 regimes.
	NewtonOff bool
	// ThermoEvery records thermo output (0 = off).
	ThermoEvery int
	// LinearMap disables the topology-preserving rank placement (the
	// "topo map" ablation, section 3.5.3).
	LinearMap bool
	// Observer, when set, is called after every step (trajectory dumps,
	// custom diagnostics). It must not mutate the simulation.
	Observer func(s *sim.Simulation, step int)
	// Recorder, when non-nil, collects per-message fabric events, per-stage
	// spans and per-round collective events for the timed steps (setup stays
	// untraced, matching how SetupTime is kept out of the breakdown).
	Recorder *trace.Recorder
	// Metrics, when non-nil, aggregates counters/histograms across all
	// layers for the timed steps (setup stays uncounted, like tracing).
	Metrics *metrics.Registry
	// Faults, when enabled, injects deterministic transport faults into the
	// timed steps (setup rounds stay fault-free, like tracing and metrics).
	Faults faultinject.Spec
	// Restart, when non-nil, resumes the run from a checkpoint snapshot;
	// its box must match the one the workload derives.
	Restart *restart.Snapshot
	// ParallelLPs is inert: nothing reads it. It is kept only because the
	// frozen benchmark harness sets it.
	ParallelLPs int
}

// RunResult is the outcome of a run.
type RunResult struct {
	Spec RunSpec
	// Breakdown is the rank-averaged stage breakdown over the run.
	Breakdown *trace.Breakdown
	// Elapsed is the slowest rank's total virtual time.
	Elapsed float64
	// Ranks and AtomsPerRank describe the realized decomposition.
	Ranks        int
	Atoms        int
	AtomsPerRank float64
	// Steps actually run.
	Steps int
	// PerfPerDay is simulated time per wall-clock day: tau/day (lj) or
	// us/day (metal), the Fig. 13/14 metric.
	PerfPerDay float64
	// Thermo holds recorded samples when ThermoEvery was set.
	Thermo []sim.ThermoSample
}

// Running is a started simulation that a caller drives step by step — the
// handle behind preemptible drivers like the job farm's workers, which need
// to observe cancellation between steps and capture checkpoints at safe
// boundaries. Run is the convenience wrapper that drives one to completion.
type Running struct {
	spec  RunSpec
	cfg   sim.Config
	s     *sim.Simulation
	steps int
	done  int
}

// Start builds the simulation a spec describes without stepping it. The
// caller owns Close; Finish summarizes whatever has been stepped so far.
func Start(spec RunSpec) (*Running, error) {
	mode := topo.MapTopo
	if spec.LinearMap {
		mode = topo.MapLinear
	}
	m, err := sim.NewMachineMode(spec.TileShape, mode)
	if err != nil {
		return nil, err
	}
	var cfg sim.Config
	if spec.Config != nil {
		cfg = *spec.Config
	} else {
		if cfg, err = BaseConfig(spec.Workload.Kind); err != nil {
			return nil, err
		}
		fullRanks := spec.Workload.FullShape.Prod() * m.Map.RanksPerNode()
		tileAtoms := int(float64(spec.Workload.Atoms) * float64(m.Map.Ranks()) / float64(fullRanks))
		cfg.Cells = lattice.CellsForAtomsOnGrid(tileAtoms, m.Map.Grid)
		cfg.ScaleRanks = fullRanks
		cfg.ThermoEvery = spec.ThermoEvery
		if spec.NewtonOff {
			cfg.NewtonOn = false
		}
	}
	steps := spec.Steps
	if steps == 0 {
		steps = spec.Workload.Steps
	}
	if spec.Restart != nil {
		if err := spec.Restart.Apply(&cfg); err != nil {
			return nil, err
		}
	}
	s, err := sim.New(m, spec.Variant, cfg)
	if err != nil {
		return nil, err
	}
	if spec.Recorder != nil {
		s.SetRecorder(spec.Recorder)
	}
	if spec.Metrics != nil {
		s.SetMetrics(spec.Metrics)
	}
	if spec.Faults.Enabled() {
		s.SetFaults(faultinject.New(spec.Faults))
	}
	return &Running{spec: spec, cfg: cfg, s: s, steps: steps}, nil
}

// Step advances one MD step and invokes the spec's Observer, if any.
func (r *Running) Step() {
	r.s.Step()
	r.done++
	if r.spec.Observer != nil {
		r.spec.Observer(r.s, r.done)
	}
}

// Sim exposes the underlying simulation (checkpoint capture, diagnostics).
func (r *Running) Sim() *sim.Simulation { return r.s }

// StepsPlanned is the spec's resolved step count; StepsDone the steps taken.
func (r *Running) StepsPlanned() int { return r.steps }

// StepsDone reports the steps taken so far.
func (r *Running) StepsDone() int { return r.done }

// NeighEvery exposes the run's reneighbor cadence — checkpoints that must
// resume bit-identically have to land on multiples of it.
func (r *Running) NeighEvery() int { return r.cfg.NeighEvery }

// Dt exposes the run's timestep for performance-metric accounting.
func (r *Running) Dt() float64 { return r.cfg.Dt }

// Capture takes a decomposition-independent snapshot labeled with the given
// absolute step (the label matters to resuming drivers that count steps
// across several Running segments).
func (r *Running) Capture(step int) *restart.Snapshot {
	return restart.Capture(r.s, step)
}

// Finish summarizes the run over the steps taken so far.
func (r *Running) Finish() *RunResult {
	return summarize(r.spec, r.s, r.done, r.cfg)
}

// Close releases the simulation's fabric resources.
func (r *Running) Close() { r.s.Close() }

// Run executes a functional simulation per the spec.
func Run(spec RunSpec) (*RunResult, error) {
	r, err := Start(spec)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	for r.done < r.steps {
		r.Step()
	}
	return r.Finish(), nil
}

// Plan starts the simulation the spec describes and returns its static
// halo neighbor-plan summary without stepping it.
func Plan(spec RunSpec) (string, error) {
	r, err := Start(spec)
	if err != nil {
		return "", err
	}
	defer r.Close()
	return r.Sim().HaloPlan(), nil
}

func summarize(spec RunSpec, s *sim.Simulation, steps int, cfg sim.Config) *RunResult {
	bd := trace.Merge(s.Breakdowns())
	elapsed := s.ElapsedMax()
	res := &RunResult{
		Spec:         spec,
		Breakdown:    bd,
		Elapsed:      elapsed,
		Ranks:        len(s.Ranks()),
		Atoms:        s.TotalAtoms(),
		AtomsPerRank: float64(s.TotalAtoms()) / float64(len(s.Ranks())),
		Steps:        steps,
		Thermo:       s.Thermo,
	}
	res.PerfPerDay = PerfPerDay(spec.Workload.Kind, steps, cfg.Dt, elapsed)
	return res
}

// PerfPerDay converts elapsed virtual seconds into the paper's performance
// metric: simulated tau per day for lj units, simulated microseconds per
// day for metal units (dt is in ps).
func PerfPerDay(k Kind, steps int, dt, elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	simulated := float64(steps) * dt // tau or ps
	if k == EAM {
		simulated *= 1e-6 // ps -> us
	}
	return simulated / elapsed * 86400
}

// DefaultTile returns a tile shape for a full machine shape, capped so
// functional runs stay tractable: the full shape when small, otherwise a
// proportional shape with at most maxNodes nodes.
func DefaultTile(full vec.I3, maxNodes int) vec.I3 {
	if full.Prod() <= maxNodes {
		return full
	}
	t := full
	for t.Prod() > maxNodes {
		// Halve the largest axis, keeping every axis >= 2.
		switch {
		case t.X >= t.Y && t.X >= t.Z && t.X > 2:
			t.X = (t.X + 1) / 2
		case t.Y >= t.Z && t.Y > 2:
			t.Y = (t.Y + 1) / 2
		case t.Z > 2:
			t.Z = (t.Z + 1) / 2
		default:
			return t
		}
	}
	return t
}
