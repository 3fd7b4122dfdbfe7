package sim

import (
	"testing"

	"tofumd/internal/faultinject"
)

// TestHaloPlansReplayBetweenBorders: every planned halo operation aims its
// rounds once per plan epoch and replays them until the epoch advances.
// Over ordinary steps nothing is aimed: LJ replays forward and reverse on
// every step, EAM its two scalar operations too. A border, a TNI fail-stop
// re-plan and a forced inbox growth (a variant that grows its inboxes on
// demand) each make every planned operation aim exactly once more, after
// which it replays again; an inbox that two operations share and both grow
// makes the one aimed before the second growth aim again.
func TestHaloPlansReplayBetweenBorders(t *testing.T) {
	lj := func(*testing.T) Config {
		cfg := failstopConfig()
		cfg.NeighEvery = 1000
		return cfg
	}
	eam := func(t *testing.T) Config {
		cfg := eamConfig(t)
		cfg.NeighEvery, cfg.CheckYes = 1000, false
		return cfg
	}
	for _, tc := range []struct {
		name  string
		cfg   func(*testing.T) Config
		plans []opPlan
	}{
		{"lj", lj, []opPlan{fwdPlan, revPlan}},
		{"eam", eam, []opPlan{fwdPlan, scalarRevPlan, scalarFwdPlan, revPlan}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			used := map[opPlan]bool{}
			for _, p := range tc.plans {
				used[p] = true
			}
			// each returns k aims for every plan of the potential's
			// operations.
			each := func(k int) (aims [numPlans]int) {
				for _, p := range tc.plans {
					aims[p] = k
				}
				return aims
			}
			// expect runs n steps, rebuild steps among them, and fails
			// unless each plan of the potential's operations aimed the
			// given number of rounds and replayed the rest; a rebuild runs
			// no forward.
			expect := func(s *Simulation, label string, n, rebuild int, aims [numPlans]int) {
				t.Helper()
				a0, r0 := s.planCounts()
				s.Run(n)
				a1, r1 := s.planCounts()
				rounds := len(s.plan.Rounds)
				for p := fwdPlan; p < numPlans; p++ {
					wantAims, wantReplays := 0, 0
					if used[p] {
						runs := n
						if p == fwdPlan {
							runs -= rebuild
						}
						wantAims, wantReplays = aims[p]*rounds, (runs-aims[p])*rounds
					}
					if a, r := a1[p]-a0[p], r1[p]-r0[p]; a != wantAims || r != wantReplays {
						t.Errorf("%s: plan %d aimed %d and replayed %d rounds in %d steps, want %d and %d",
							label, p, a, r, n, wantAims, wantReplays)
					}
				}
			}

			s := newSim(t, Opt(), tc.cfg(t))
			s.Step() // setup ran no forward operation
			expect(s, "ordinary steps", 10, 0, each(0))

			// The next step rebuilds: the reverse and scalar operations
			// after its border aim afresh, and forward in the step after.
			s.Cfg.NeighEvery = s.step + 1
			rebuilds := s.Rebuilds
			expect(s, "border", 2, 1, each(1))
			if s.Rebuilds != rebuilds+1 {
				t.Fatalf("%d rebuilds, want 1", s.Rebuilds-rebuilds)
			}
			expect(s, "after the border", 3, 0, each(0))

			// TNI 2 fails now: forward's round quarantines it and re-plans
			// mid-round, so the step's later operations aim afresh, and so
			// does forward in the next step.
			s.SetFaults(faultinject.New(faultinject.Spec{TNIFails: []faultinject.TNIFail{{Idx: 2, At: s.Now()}}}))
			epoch := s.epoch
			expect(s, "TNI re-plan", 2, 0, each(1))
			if !s.health.TNIQuarantined(2) || s.epoch == epoch {
				t.Fatalf("TNI 2 quarantined %v, epoch %d → %d: want a re-plan", s.health.TNIQuarantined(2), epoch, s.epoch)
			}
			expect(s, "after the re-plan", 3, 0, each(0))

			// An inbox that must grow: forward, the first operation of a
			// step, grows it while aiming, and the step's others aim once.
			g := newSim(t, P2P4TNI(), tc.cfg(t))
			g.Step()
			expect(g, "ordinary steps without pre-registration", 3, 0, each(0))
			ib := &g.ranks[0].sendLinks[0].fwd.inbox
			g.registerInbox(ib, g.ranks[0].sendLinks[0].dst.ID, 1)
			small := ib.Region
			expect(g, "inbox growth", 2, 0, each(1))
			if ib.Region == small || ib.CapBytes <= 1 {
				t.Fatalf("inbox of %d bytes did not grow", ib.CapBytes)
			}
			expect(g, "after the growth", 3, 0, each(0))

			if !used[scalarRevPlan] {
				return
			}
			// EAM's density reverse and the force reverse share the
			// reverse-side inbox. Shrunk, it grows for the density
			// reverse, which then re-aims because the force reverse grows
			// it again; so do the operations aimed in between.
			l := g.ranks[0].recvLinks[0]
			ib = &l.rev.inbox
			g.registerInbox(ib, l.src.ID, 1)
			expect(g, "shared inbox growth", 2, 0, [numPlans]int{fwdPlan: 2, scalarRevPlan: 2, scalarFwdPlan: 2, revPlan: 1})
			expect(g, "after the shared growth", 3, 0, each(0))
		})
	}
}
