package sim

import (
	"fmt"
	"strings"

	"tofumd/internal/halo"
)

// HaloPlan renders the static neighbor plan of this simulation: the
// pattern, transport and resource policy the variant selected, the link
// graph the generic halo planner built over the rank map, and the
// bulk-synchronous round structure the exchange executes. The plan is
// fully determined before step 0, so it can be inspected without running.
func (s *Simulation) HaloPlan() string {
	var sb strings.Builder
	m := s.M.Map
	fmt.Fprintf(&sb, "halo plan: %s pattern, %s transport, %s TNI policy, %d comm thread(s)\n",
		s.Var.Pattern, s.Var.Transport, s.Var.TNIPolicy, s.Var.CommThreads)
	fmt.Fprintf(&sb, "rank grid %dx%dx%d (%d ranks on %d nodes), ghost cutoff %.3f -> %d shell(s)\n",
		m.Grid.X, m.Grid.Y, m.Grid.Z, m.Ranks(), m.Ranks()/m.RanksPerNode(), s.ghCut, s.shells)

	specs := s.plan.Links
	fmt.Fprintf(&sb, "%d directed links, %d per rank, %d round(s) per exchange\n",
		len(specs), len(specs)/m.Ranks(), len(s.plan.Rounds))

	if s.Var.Pattern == halo.P2P {
		// Hop histogram: faces/edges/corners of the neighbor shell.
		var hops [4]int
		for _, sp := range specs {
			hops[halo.HopCount(sp.Dir)]++
		}
		fmt.Fprintf(&sb, "hop histogram: %d face, %d edge, %d corner links\n",
			hops[1], hops[2], hops[3])
		return sb.String()
	}
	n := len(specs) / len(s.plan.Rounds) // every round holds as many links
	for _, rk := range s.plan.Rounds {
		fmt.Fprintf(&sb, "round dim=%d iter=%d: %d links (%d per rank)\n", rk.Dim, rk.Iter, n, n/m.Ranks())
	}
	return sb.String()
}
