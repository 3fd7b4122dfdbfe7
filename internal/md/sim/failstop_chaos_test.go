package sim

import (
	"slices"
	"testing"

	"tofumd/internal/faultinject"
	"tofumd/internal/halo"
	"tofumd/internal/metrics"
	"tofumd/internal/trace"
	"tofumd/internal/vec"
)

// failstopConfig is the melt the fail-stop chaos tests run.
func failstopConfig() Config {
	cfg := ljConfig()
	cfg.Cells = vec.I3{X: 8, Y: 8, Z: 8}
	return cfg
}

// TestChaosTNIFailover is the tentpole failover guarantee: a permanently
// dead TNI is quarantined by the health state machine, the §3.3 balance is
// re-run over the five survivors (replanning every rank's neighbor→thread
// table and rebuilding the VCQ set), the run completes, and the physics is
// bit-identical to the fault-free melt. The same spec+seed replays
// bit-identically.
func TestChaosTNIFailover(t *testing.T) {
	const steps = 60
	base, baseE, _ := chaosRun(t, steps, faultinject.Spec{}, nil)
	spec, err := faultinject.ParseSpec("seed=5,tnifail=2@0")
	if err != nil {
		t.Fatal(err)
	}
	run := func(rec *trace.Recorder) (*Simulation, *metrics.Registry) {
		s := newSim(t, Opt(), failstopConfig())
		reg := metrics.New()
		s.SetMetrics(reg)
		if rec != nil {
			s.SetRecorder(rec)
		}
		s.SetFaults(faultinject.New(spec))
		s.Run(steps)
		return s, reg
	}
	rec := trace.NewRecorder()
	s, reg := run(rec)
	assertSamePhysics(t, spec.String(), base, s.Gather(), baseE, s.TotalEnergyPerAtom())

	if !s.Health().TNIQuarantined(2) {
		t.Fatal("dead TNI 2 not quarantined")
	}
	if surv := halo.SurvivingTNIs(s.M.Params.TNIsPerNode, s.Health().TNIQuarantined); len(surv) != 5 {
		t.Fatalf("surviving TNIs = %v, want the 5 others", surv)
	}
	for _, r := range s.Ranks() {
		if r.plan.Version() < 2 {
			t.Fatalf("rank %d plan version %d: never replanned", r.ID, r.plan.Version())
		}
		if r.vcqByTNI[2] != nil {
			t.Errorf("rank %d still holds a VCQ on the quarantined TNI", r.ID)
		}
		for _, l := range r.sendLinks {
			if l.fwd.TNI == 2 {
				t.Fatalf("rank %d link →%d still assigned to quarantined TNI 2", r.ID, l.dst.ID)
			}
		}
		for _, l := range r.recvLinks {
			if l.rev.TNI == 2 {
				t.Fatalf("rank %d reverse link ←%d still assigned to quarantined TNI 2", r.ID, l.src.ID)
			}
		}
	}
	if n := reg.Counter("sim_tni_replans", "total").Value(); n < 1 {
		t.Errorf("sim_tni_replans = %d, want >= 1", n)
	}
	if g := reg.Gauge("health_quarantined", "tnis").Value(); g != 1 {
		t.Errorf("health_quarantined tnis gauge = %v, want 1", g)
	}
	if reg.Gauge("health_epoch", "epoch").Value() < 1 {
		t.Error("health epoch gauge never advanced")
	}
	spans := 0
	for _, sp := range rec.Spans() {
		if sp.Name == "tni-quarantine" && sp.Stage == "health" {
			spans++
		}
	}
	if spans != 1 {
		t.Errorf("tni-quarantine spans = %d, want 1", spans)
	}

	// Same spec + seed: virtual time and state replay bit-identically.
	s2, _ := run(nil)
	if s.ElapsedMax() != s2.ElapsedMax() {
		t.Errorf("elapsed differs across replays: %v != %v", s.ElapsedMax(), s2.ElapsedMax())
	}
	fp1, fp2 := s.Gather(), s2.Gather()
	for i := range fp1 {
		if fp1[i] != fp2[i] {
			t.Fatalf("replay diverged at atom %d", fp1[i].ID)
		}
	}
}

// TestChaosLinkFailPermanentMPIRoute severs one directional neighbor link.
// The health layer must quarantine that link (and only it — sibling
// successes keep its TNI healthy), route the neighbor via MPI permanently,
// keep the quarantine sticky across border rebuilds and across a probe of
// the still-dead link, and preserve bit-exact physics.
func TestChaosLinkFailPermanentMPIRoute(t *testing.T) {
	const steps = 60
	base, baseE, _ := chaosRun(t, steps, faultinject.Spec{}, nil)
	// Pick a real directed neighbor pair off the static link graph.
	probe := newSim(t, Opt(), failstopConfig())
	l0 := probe.Ranks()[0].sendLinks[0]
	src, dst := l0.src.ID, l0.dst.ID

	spec := faultinject.Spec{Seed: 9, LinkFails: []faultinject.LinkFail{{Src: src, Dst: dst, At: 0}}}
	s := newSim(t, Opt(), failstopConfig())
	reg := metrics.New()
	s.SetMetrics(reg)
	s.SetFaults(faultinject.New(spec))
	s.Run(steps)
	assertSamePhysics(t, spec.String(), base, s.Gather(), baseE, s.TotalEnergyPerAtom())

	if !s.Health().LinkQuarantined(src, dst) {
		t.Fatalf("severed link %d→%d not quarantined after %d steps", src, dst, steps)
	}
	if n := s.Health().QuarantinedTNIs(); len(n) != 0 {
		t.Errorf("TNIs %v quarantined by a single severed link", n)
	}
	if reg.Counter("sim_p2p_fallback", "msgs").Value() == 0 {
		t.Error("no MPI fallback traffic for the quarantined link")
	}
	if g := reg.Gauge("health_quarantined", "links").Value(); g != 1 {
		t.Errorf("health_quarantined links gauge = %v, want 1", g)
	}
	// Probing a still-dead link must not re-arm it.
	s.ProbeHealth()
	if !s.Health().LinkQuarantined(src, dst) {
		t.Error("probe re-armed a link the fault model still marks dead")
	}
}

// TestChaosFallbackRearmAfterWindow pins PR 4's transient-fallback re-arm
// semantics against the sticky health quarantine: a NACK storm short enough
// to stay below the quarantine threshold drives neighbors into the MPI
// fallback; once the fault window ends, the next border rebuild re-arms
// uTofu (fb.Reset), traffic leaves the MPI path, and no link is left
// quarantined.
func TestChaosFallbackRearmAfterWindow(t *testing.T) {
	base, baseE, _ := chaosRun(t, 40, faultinject.Spec{}, nil)
	s := newSim(t, Opt(), failstopConfig())
	reg := metrics.New()
	s.SetMetrics(reg)
	s.SetFaults(faultinject.New(faultinject.Spec{Seed: 3, Nack: 0.9}))
	s.Run(10) // fault window: inside one border period (rebuild at 20)
	if s.fb.DegradedCount() == 0 {
		t.Fatal("NACK storm did not degrade any neighbor")
	}
	if reg.Counter("sim_p2p_fallback", "msgs").Value() == 0 {
		t.Fatal("no fallback traffic during the fault window")
	}
	s.SetFaults(nil) // the window ends
	s.Run(15)        // crosses the border rebuild at step 20
	if s.fb.DegradedCount() != 0 {
		t.Error("fallback not re-armed at the border rebuild after the window")
	}
	f2 := reg.Counter("sim_p2p_fallback", "msgs").Value()
	s.Run(15)
	if f3 := reg.Counter("sim_p2p_fallback", "msgs").Value(); f3 != f2 {
		t.Errorf("traffic still on the MPI path after re-arm: %d → %d msgs", f2, f3)
	}
	if n := s.Health().QuarantinedLinkCount(); n != 0 {
		t.Errorf("%d links quarantined by a transient window", n)
	}
	assertSamePhysics(t, "nack window", base, s.Gather(), baseE, s.TotalEnergyPerAtom())
}

// TestReplanVCQsMatchAssignment holds every variant's VCQ set to its links'
// TNI assignment: after New each rank holds VCQs on exactly the TNIs its
// send links (fwd) and receive links (rev) are assigned, none under MPI; after
// tnifail=2@0 quarantines TNI 2 and replans, the held set is the survivors'
// assignment set and no VCQ sits on TNI 2.
func TestReplanVCQsMatchAssignment(t *testing.T) {
	spec, err := faultinject.ParseSpec("seed=5,tnifail=2@0")
	if err != nil {
		t.Fatal(err)
	}
	check := func(s *Simulation, when string) {
		t.Helper()
		for _, r := range s.Ranks() {
			want := make([]bool, s.M.Params.TNIsPerNode)
			if s.Var.Transport == halo.TransportUTofu {
				for _, l := range r.sendLinks {
					want[l.fwd.TNI] = true
				}
				for _, l := range r.recvLinks {
					want[l.rev.TNI] = true
				}
			}
			held := make([]bool, len(want))
			for tni := range r.vcqByTNI {
				held[tni] = true
			}
			if !slices.Equal(held, want) {
				t.Fatalf("%s %s: rank %d holds VCQs on TNIs %v, its links are assigned %v",
					s.Var.Name, when, r.ID, held, want)
			}
		}
	}
	for _, v := range StepByStepVariants() {
		s := newSim(t, v, failstopConfig())
		check(s, "after New")
		if v.Transport != halo.TransportUTofu {
			continue
		}
		s.SetFaults(faultinject.New(spec))
		s.Run(20)
		if !s.Health().TNIQuarantined(2) {
			t.Fatalf("%s: dead TNI 2 not quarantined", v.Name)
		}
		check(s, "after the TNI 2 replan")
		for _, r := range s.Ranks() {
			if r.vcqByTNI[2] != nil {
				t.Fatalf("%s: rank %d still holds a VCQ on the quarantined TNI", v.Name, r.ID)
			}
		}
	}
}
