package sim

import "tofumd/internal/tofu"

// FabricForTest exposes the simulation's fabric to the external test
// package, which drives its inert SetParallel knob.
func (s *Simulation) FabricForTest() *tofu.Fabric { return s.fab }
