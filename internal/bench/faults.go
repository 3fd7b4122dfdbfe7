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

// meltOutcome is one chaos melt's comparable summary: the final state and
// every fault counter the faults and failstop experiments report.
type meltOutcome struct {
	hash                             uint64
	energy, elapsed                  float64
	retransmits, drops, fallbackMsgs int64
	replans, quarantined             int64
}

// samePhysics reports whether m ended in o's final state, bit for bit.
func (m meltOutcome) samePhysics(o meltOutcome) bool {
	return m.hash == o.hash && m.energy == o.energy
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

// Faults is the chaos experiment: an LJ melt under each point of a fault
// sweep — drop rates {0, 1e-4, 1e-3, 1e-2} plus a forced-fallback point where
// a NACK storm starves the uTofu path and the per-neighbor MPI fallback must
// carry the round — against the fault-free run of the same length. Fault
// injection must cost virtual time only, never physics, and must replay
// bit-identically. Per point the series are the slowest rank's elapsed
// virtual time (lower is better), its overhead over the fault-free run
// (information only), the uTofu retransmissions and MPI-fallback messages,
// and the two invariant flags — bit-exact final state against the fault-free
// run and against a second run of the same spec — which must never move off
// 1.
func Faults(opt Options) (*Artifact, error) {
	steps := meltSteps(opt)
	baseline, err := chaosMelt(steps, faultinject.Spec{})
	if err != nil {
		return nil, err
	}
	specs := []faultinject.Spec{
		{},
		{Seed: 7, Drop: 1e-4},
		{Seed: 7, Drop: 1e-3},
		{Seed: 7, Drop: 1e-2},
		{Seed: 3, Nack: 0.9}, // forced fallback: uTofu starved, MPI carries
	}
	a := NewArtifact("faults", opt)
	for _, spec := range specs {
		first, err := chaosMelt(steps, spec)
		if err != nil {
			return nil, err
		}
		replay, err := chaosMelt(steps, spec)
		if err != nil {
			return nil, err
		}
		lbl := faultLabel(spec)
		a.Add(key(lbl, "elapsed"), "s", first.elapsed, DirLower)
		a.Add(key(lbl, "overhead"), "frac", first.elapsed/baseline.elapsed-1, "")
		a.Add(key(lbl, "retransmits"), "count", float64(first.retransmits), DirEqual)
		a.Add(key(lbl, "fallback_msgs"), "count", float64(first.fallbackMsgs), DirEqual)
		a.Add(key(lbl, "physics_identical"), "bool", boolSeries(first.samePhysics(baseline)), DirEqual)
		a.Add(key(lbl, "replay_identical"), "bool", boolSeries(first == replay), DirEqual)
	}
	return a, nil
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

// faultLabel names a sweep point in artifact keys.
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

func boolSeries(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
