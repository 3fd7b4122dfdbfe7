package sim

import "tofumd/internal/tofu"

// FabricForTest exposes the simulation's fabric to the external test
// package, which drives its inert SetParallel knob.
func (s *Simulation) FabricForTest() *tofu.Fabric { return s.fab }

// lastBatch returns the batch the operation's last run sent its last round
// from.
func (s *Simulation) lastBatch(op haloOp) *batch {
	return s.opBatch(op, len(s.plan.Rounds)-1)
}

// planCounts returns each planned operation's aimed and replayed rounds so
// far, keyed by plan.
func (s *Simulation) planCounts() (aims, replays [numPlans]int) {
	return s.aims, s.replays
}
