package bench

import (
	"fmt"
	"math"

	"tofumd/internal/core"
	"tofumd/internal/faultinject"
	"tofumd/internal/md/sim"
	"tofumd/internal/metrics"
	"tofumd/internal/vec"
)

// FaultsRow is one point of the chaos sweep: an LJ melt under a fault spec,
// compared against the fault-free run of the same length.
type FaultsRow struct {
	Spec faultinject.Spec
	// Elapsed is the slowest rank's virtual time; Overhead its increase over
	// the fault-free run (0 for the fault-free row itself).
	Elapsed, Overhead float64
	// Retransmits and Drops come from the uTofu and fabric counters;
	// FallbackMsgs counts messages re-routed over the MPI path.
	Retransmits, Drops, FallbackMsgs int64
	// PhysicsIdentical reports bit-exact final state vs the fault-free run;
	// ReplayIdentical that a second run with the same spec reproduced the
	// same state, elapsed time and counters.
	PhysicsIdentical, ReplayIdentical bool
}

// FaultsResult is the chaos experiment: fault injection must cost virtual
// time only — never physics — and must replay bit-identically.
type FaultsResult struct {
	Rows  []FaultsRow
	Steps int
}

// meltOutcome is one chaos melt's comparable summary: the final state and
// every fault counter the faults and failstop experiments report.
type meltOutcome struct {
	hash                             uint64
	energy, elapsed                  float64
	retransmits, drops, fallbackMsgs int64
	replans, quarantined             int64
}

// meltSteps is the chaos melts' step count: 100, 400 under Full, or
// Options.Steps.
func meltSteps(opt Options) int {
	if opt.Full && opt.Steps == 0 {
		return 400
	}
	return opt.steps(100)
}

// chaosMelt runs the LJ melt of the chaos experiments (8x8x8 FCC cells on a
// 2x2x2 tile, the opt variant) for steps steps under a fault spec.
func chaosMelt(steps int, spec faultinject.Spec) (meltOutcome, error) {
	cfg, err := core.BaseConfig(core.LJ)
	if err != nil {
		return meltOutcome{}, err
	}
	cfg.Cells = vec.I3{X: 8, Y: 8, Z: 8}
	reg := metrics.New()
	r, err := core.Start(core.RunSpec{
		Config: &cfg, TileShape: vec.I3{X: 2, Y: 2, Z: 2}, Variant: sim.Opt(),
		Metrics: reg, Faults: spec,
	})
	if err != nil {
		return meltOutcome{}, err
	}
	defer r.Close()
	s := r.Sim()
	s.Run(steps)
	return meltOutcome{
		hash:         stateHash(s),
		energy:       s.TotalEnergyPerAtom(),
		elapsed:      s.ElapsedMax(),
		retransmits:  reg.Counter("utofu_retransmits", "put").Value(),
		drops:        reg.Counter("fabric_faults", "drops").Value(),
		fallbackMsgs: reg.Counter("sim_p2p_fallback", "msgs").Value(),
		replans:      reg.Counter("sim_tni_replans", "total").Value(),
		quarantined:  int64(reg.Gauge("health_quarantined", "tnis").Value()),
	}, nil
}

// Faults runs the chaos sweep: drop rates {0, 1e-4, 1e-3, 1e-2} plus a
// forced-fallback point where a NACK storm starves the uTofu path and the
// per-neighbor MPI fallback must carry the round.
func Faults(opt Options) (FaultsResult, error) {
	steps := meltSteps(opt)
	baseline, err := chaosMelt(steps, faultinject.Spec{})
	if err != nil {
		return FaultsResult{}, err
	}
	specs := []faultinject.Spec{
		{},
		{Seed: 7, Drop: 1e-4},
		{Seed: 7, Drop: 1e-3},
		{Seed: 7, Drop: 1e-2},
		{Seed: 3, Nack: 0.9}, // forced fallback: uTofu starved, MPI carries
	}
	res := FaultsResult{Steps: steps}
	for _, spec := range specs {
		first, err := chaosMelt(steps, spec)
		if err != nil {
			return res, err
		}
		replay, err := chaosMelt(steps, spec)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, FaultsRow{
			Spec:             spec,
			Elapsed:          first.elapsed,
			Overhead:         first.elapsed/baseline.elapsed - 1,
			Retransmits:      first.retransmits,
			Drops:            first.drops,
			FallbackMsgs:     first.fallbackMsgs,
			PhysicsIdentical: first.hash == baseline.hash && first.energy == baseline.energy,
			ReplayIdentical:  first == replay,
		})
	}
	return res, nil
}

// stateHash folds every atom's ID, position and velocity bits into one
// order-independent-of-rank fingerprint (atoms sorted by global ID).
func stateHash(s *sim.Simulation) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, a := range s.Gather() {
		h = (h ^ uint64(a.ID)) * prime
		for _, v := range [6]float64{a.Pos.X, a.Pos.Y, a.Pos.Z, a.Vel.X, a.Vel.Y, a.Vel.Z} {
			h = (h ^ math.Float64bits(v)) * prime
		}
	}
	return h
}

// faultLabel names a row for tables and artifact keys.
func faultLabel(s faultinject.Spec) string {
	switch {
	case s.Nack > 0:
		return fmt.Sprintf("nack%.0e", s.Nack)
	case s.Drop > 0:
		return fmt.Sprintf("drop%.0e", s.Drop)
	default:
		return "fault-free"
	}
}

// Format renders the chaos sweep.
func (f FaultsResult) Format() string {
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			faultLabel(r.Spec),
			fmt.Sprintf("%.6f s", r.Elapsed),
			fmt.Sprintf("%+.2f%%", 100*r.Overhead),
			fmt.Sprintf("%d", r.Retransmits),
			fmt.Sprintf("%d", r.FallbackMsgs),
			yesNo(r.PhysicsIdentical),
			yesNo(r.ReplayIdentical),
		})
	}
	s := fmt.Sprintf("Chaos sweep: LJ melt, %d steps, fault injection vs fault-free\n", f.Steps)
	s += table([]string{"faults", "elapsed", "overhead", "retransmits", "fallback", "physics==", "replay=="}, rows)
	s += "faults cost virtual time only: physics and replay columns must all be yes\n"
	return s
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// Artifact emits the chaos series: elapsed per fault point (lower is
// better), deterministic counters, and the two invariant flags, which must
// never move off 1.
func (f FaultsResult) Artifact(opt Options) *Artifact {
	a := NewArtifact("faults", opt)
	for _, r := range f.Rows {
		lbl := faultLabel(r.Spec)
		a.Add(key(lbl, "elapsed"), "s", r.Elapsed, DirLower)
		a.Add(key(lbl, "overhead"), "frac", r.Overhead, "")
		a.Add(key(lbl, "retransmits"), "count", float64(r.Retransmits), DirEqual)
		a.Add(key(lbl, "fallback_msgs"), "count", float64(r.FallbackMsgs), DirEqual)
		a.Add(key(lbl, "physics_identical"), "bool", boolSeries(r.PhysicsIdentical), DirEqual)
		a.Add(key(lbl, "replay_identical"), "bool", boolSeries(r.ReplayIdentical), DirEqual)
	}
	return a
}

func boolSeries(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
