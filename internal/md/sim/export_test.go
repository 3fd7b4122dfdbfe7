package sim

import (
	"tofumd/internal/halo"
	"tofumd/internal/tofu"
)

// FabricForTest exposes the simulation's fabric to the external test
// package, which drives its inert SetParallel knob.
func (s *Simulation) FabricForTest() *tofu.Fabric { return s.fab }

// lastRound returns the round the operation's last run sent last.
func (s *Simulation) lastRound(op haloOp) *halo.Round {
	return s.opRound(op, len(s.plan.Rounds)-1)
}

// planCounts returns each planned operation's aimed and replayed rounds so
// far, keyed by plan.
func (s *Simulation) planCounts() (aims, replays [numPlans]int) {
	return s.aims, s.replays
}
