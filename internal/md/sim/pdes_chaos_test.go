package sim

import (
	"testing"

	"tofumd/internal/faultinject"
	"tofumd/internal/metrics"
	"tofumd/internal/vec"
)

// TestChaosParallelEngineBitIdentical replays a faulty LJ melt after the
// fabric's inert SetParallel(4): positions, velocities, energy, virtual time
// and fault counters must match the untouched run bit-for-bit while drops
// and retransmissions reshuffle the event flow.
func TestChaosParallelEngineBitIdentical(t *testing.T) {
	spec := faultinject.Spec{Seed: 7, Drop: 1e-2}
	run := func(lps int) ([]InitAtom, float64, float64, int64, int64) {
		cfg := ljConfig()
		cfg.Cells = vec.I3{X: 8, Y: 8, Z: 8}
		s := newSim(t, Opt(), cfg)
		reg := metrics.New()
		s.SetMetrics(reg)
		s.SetFaults(faultinject.New(spec))
		if lps > 1 {
			if err := s.fab.SetParallel(lps); err != nil {
				t.Fatal(err)
			}
		}
		s.Run(100)
		return s.Gather(), s.TotalEnergyPerAtom(), s.ElapsedMax(),
			reg.Counter("utofu_retransmits", "put").Value(),
			reg.Counter("fabric_faults", "drops").Value()
	}
	base, baseE, baseEl, baseRetr, baseDrop := run(1)
	got, gotE, gotEl, gotRetr, gotDrop := run(4)
	assertSamePhysics(t, "SetParallel(4)", base, got, baseE, gotE)
	if gotEl != baseEl {
		t.Errorf("elapsed differs: SetParallel(4) %v != untouched %v", gotEl, baseEl)
	}
	if gotRetr != baseRetr || gotDrop != baseDrop {
		t.Errorf("fault counters differ: retr %d/%d drops %d/%d", gotRetr, baseRetr, gotDrop, baseDrop)
	}
	if baseDrop == 0 {
		t.Errorf("no drops injected; the test exercised nothing")
	}
}
