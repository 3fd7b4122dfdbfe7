package sim

import (
	"runtime"
	"testing"

	"tofumd/internal/faultinject"
	"tofumd/internal/metrics"
	"tofumd/internal/vec"
)

// TestChaosParallelEngineBitIdentical replays a faulty LJ melt built and run
// at GOMAXPROCS 1 and 4, the host pool's worker count: positions,
// velocities, energy, virtual time and fault counters must match bit for
// bit while drops and retransmissions reshuffle the event flow and one
// degraded link's messages fall back to MPI, landing where a put would.
func TestChaosParallelEngineBitIdentical(t *testing.T) {
	spec := faultinject.Spec{Seed: 7, Drop: 1e-2}
	type counts struct{ retr, drops, fallbacks int64 }
	run := func(procs int) ([]InitAtom, float64, float64, counts) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cfg := ljConfig()
		cfg.Cells = vec.I3{X: 8, Y: 8, Z: 8}
		s := newSim(t, Opt(), cfg)
		if w := s.pool.Workers(); w != procs {
			t.Fatalf("GOMAXPROCS %d: pool has %d workers", procs, w)
		}
		reg := metrics.New()
		s.SetMetrics(reg)
		s.SetFaults(faultinject.New(spec))
		src, dst := s.Ranks()[0].ID, s.Ranks()[0].recvLinks[0].src.ID
		for range fallbackK {
			s.fb.RecordFailure(src, dst)
		}
		s.Run(100)
		return s.Gather(), s.TotalEnergyPerAtom(), s.ElapsedMax(), counts{
			reg.Counter("utofu_retransmits", "put").Value(),
			reg.Counter("fabric_faults", "drops").Value(),
			reg.Counter("sim_p2p_fallback", "msgs").Value(),
		}
	}
	base, baseE, baseEl, baseN := run(1)
	got, gotE, gotEl, gotN := run(4)
	assertSamePhysics(t, "4 workers", base, got, baseE, gotE)
	if gotEl != baseEl {
		t.Errorf("elapsed differs: 4 workers %v != 1 worker %v", gotEl, baseEl)
	}
	if gotN != baseN {
		t.Errorf("fault counters differ: 4 workers %+v, 1 worker %+v", gotN, baseN)
	}
	if baseN.drops == 0 || baseN.fallbacks == 0 {
		t.Errorf("no drops injected or no message fell back (%+v); the test exercised nothing", baseN)
	}
}
