package sim

import (
	"fmt"
	"math"
	"testing"

	"tofumd/internal/faultinject"
	"tofumd/internal/halo"
	"tofumd/internal/md/neighbor"
	"tofumd/internal/md/potential"
	"tofumd/internal/metrics"
	"tofumd/internal/trace"
	"tofumd/internal/units"
	"tofumd/internal/vec"
)

// The step as it ran before a halo round's timing ran beside the rank work
// that needs only its bytes, kept verbatim as the reference for
// TestStepMatchesReference: every round packs, runs the fabric round, and
// only then unpacks in a region of its own, and the force kernel and the
// final integration run in their own stages' regions. Renamed with a ref
// prefix; everything they call that the change left alone (exchange, send
// lists, piggybacked offsets, thermo) is shared. The neighbor build, since
// split into a per-rank build beside the border round and a charge, is
// kept verbatim too (refBuildNeighborLists).

// refStep advances one MD step through the LAMMPS stage sequence: initial
// integrate (Modify), neighbor check / ghost communication (Other/Comm),
// force evaluation (Pair), reverse communication (Comm), final integrate
// (Modify) and periodic thermo output (Other).
func (s *Simulation) refStep() {
	s.step++
	s.stage(trace.Modify, "integrate1", func() {
		s.forRanks(func(id int) {
			r := s.ranks[id]
			s.nve.InitialIntegrate(r.Atoms)
			r.Clock += s.M.Cost.IntegrateTime(r.Atoms.NLocal, s.Var.ComputeThreading)
		})
	})

	rebuild := false
	if s.step%s.Cfg.NeighEvery == 0 {
		if s.Cfg.CheckYes {
			s.stage(trace.Other, "check", func() { rebuild = s.checkDisplacement() })
		} else {
			rebuild = true
		}
	}
	if rebuild {
		s.stage(trace.Comm, "exchange", s.doExchange)
		s.stage(trace.Comm, "border", s.refDoBorder)
		s.stage(trace.Neigh, "neigh", s.refBuildNeighborLists)
	} else {
		s.stage(trace.Comm, "forward", s.refDoForward)
	}

	s.stage(trace.Pair, "pair", s.refComputeForces)

	if s.Cfg.NewtonOn {
		s.stage(trace.Comm, "reverse", s.refDoReverse)
	}

	s.stage(trace.Modify, "integrate2", func() {
		s.forRanks(func(id int) {
			r := s.ranks[id]
			s.nve.FinalIntegrate(r.Atoms)
			r.Clock += s.M.Cost.IntegrateTime(r.Atoms.NLocal, s.Var.ComputeThreading)
		})
	})

	if s.Cfg.RescaleEvery > 0 && s.step%s.Cfg.RescaleEvery == 0 {
		s.stage(trace.Other, "rescale", s.rescaleTemperature)
	}

	if s.Cfg.ThermoEvery > 0 && s.step%s.Cfg.ThermoEvery == 0 {
		s.stage(trace.Other, "thermo", func() { s.recordThermo(true) })
	}

	// Per-step bookkeeping outside the named stages.
	for _, r := range s.ranks {
		r.Clock += s.M.Cost.OtherPerStep
		r.BD.Add(trace.Other, s.M.Cost.OtherPerStep)
	}
}

// refPayload returns sender r's payload of the aimed message m: a view of r's
// arrays, bytes packed at m's destination, or the side's scratch. Only the
// scratch is kept on the side.
func refPayload(op haloOp, r *Rank, l *link, m *halo.Msg) []byte {
	switch {
	case op.view != nil:
		return op.view(r, l)
	case op.direct:
		return op.pack(r, l, m.Dest())
	}
	sd := l.side(op.rev)
	sd.buf = op.pack(r, l, sd.buf)
	return sd.buf
}

// refRunOp executes the operation over every round of the variant's pattern.
func (s *Simulation) refRunOp(op haloOp) {
	for i, k := range s.plan.Rounds {
		if op.rev {
			k = s.plan.Rounds[len(s.plan.Rounds)-1-i]
		}
		s.refRunOpRound(op, k)
	}
}

// refRunOpRound aims, packs, ships and unpacks the operation's messages of
// round k. A serial gather builds the round's messages in rank and link
// order and aims a direct op's at the receiver's position array before
// any packing, so its senders write their ghosts in place. Senders pack in
// parallel; a second serial pass, in the same order, aims the other
// uTofu messages at their inboxes (which may grow to fit the payload) and
// stamps ReadyAt.
func (s *Simulation) refRunOpRound(op haloOp, k halo.RoundKey) {
	packTh := s.Var.PackThreading()
	b := s.round
	b.Reset(len(s.links))
	for _, r := range s.ranks {
		for _, l := range op.links(r) {
			if !l.inRound(k) {
				continue
			}
			m := b.Add(l.msg(op.rev, op.known))
			if op.direct {
				m.Region, m.DstOff = s.xRegion[m.Dst], l.recvStart*posBytes
			}
		}
	}
	s.forRanks(func(id int) {
		r := s.ranks[id]
		bytes := 0
		for _, m := range b.BySrc[id] {
			m.Data = refPayload(op, r, &s.links[m.Link], m)
			bytes += len(m.Data)
		}
		r.Clock += s.M.Cost.PackTime(units.Bytes(bytes), packTh)
	})
	inbox := !op.direct && s.Var.Transport == halo.TransportUTofu
	for _, m := range b.Msgs {
		if inbox {
			ib := &s.links[m.Link].side(op.rev).inbox
			s.refEnsureInbox(s.ranks[m.Dst], ib, len(m.Data))
			m.Region = ib.Region
		}
		// Stamped after ensureInbox: a registration on a self-link (the
		// rank's own periodic image) delays its own send.
		m.ReadyAt = s.ranks[m.Src].Clock
	}
	s.eng.RunRound(s.Var.Transport, b.Msgs)
	if op.direct {
		return
	}
	s.forRanks(func(id int) {
		r := s.ranks[id]
		bytes := 0
		for _, m := range b.ByDst[id] {
			op.unpack(r, &s.links[m.Link], m.Data)
			bytes += len(m.Data)
		}
		if bytes > 0 || !op.unpackIfAny {
			r.Clock += s.M.Cost.UnpackTime(units.Bytes(bytes), packTh)
		}
	})
}

// refDoForward is the forward stage of an ordinary step.
func (s *Simulation) refDoForward() { s.refRunOp(s.forward()) }

// refDoReverse is the reverse stage of a Newton-on step.
func (s *Simulation) refDoReverse() { s.refRunOp(reverseOp) }

// refDoBorder rebuilds the ghost regions: send lists are derived from the
// sub-box geometry, atoms are shipped, and receivers append ghosts and
// record the recv_ptr offsets. Under the pre-registered scheme the offsets
// are piggybacked back to the senders (section 3.4).
func (s *Simulation) refDoBorder() {
	// A fresh plan re-arms transiently degraded neighbor links; health
	// quarantine is sticky and survives the rebuild (only ProbeHealth
	// re-arms a quarantined link or TNI).
	s.fb.Reset()
	s.forRanks(func(id int) {
		r := s.ranks[id]
		r.Atoms.ClearGhosts()
		r.resetPlan()
	})
	if s.Var.Pattern == halo.P2P {
		s.buildP2PSendLists()
	}
	for _, k := range s.plan.Rounds {
		if s.Var.Pattern == halo.ThreeStage {
			s.build3StageSendLists(k)
		}
		s.refRunOpRound(borderOp, k)
	}
	if s.Var.Preregistered {
		// The exchange and the ghosts appended above only move X if it
		// outgrew its reserve; re-take the registered view so forward puts
		// keep landing in the live array (its size, and so the region's
		// bounds, are unchanged).
		for _, r := range s.ranks {
			s.xRegion[r.ID].Buf = r.positionBytes()
		}
		s.piggybackOffsets()
	}
}

// refBuildNeighborLists rebuilds every rank's list and records hold positions.
func (s *Simulation) refBuildNeighborLists() {
	mode := s.neighborMode()
	s.forRanks(func(id int) {
		r := s.ranks[id]
		if r.NL == nil {
			r.NL = new(neighbor.List)
		}
		r.NL.Rebuild(r.Atoms, s.ghCut, mode)
		r.XHold = append(r.XHold[:0], r.Atoms.X[:r.Atoms.NLocal]...)
		r.Clock += s.M.Cost.NeighTime(r.Atoms.Total(), r.NL.Candidates, s.Var.ComputeThreading)
	})
	s.Rebuilds++
}

// refComputeForces evaluates the potential, including the EAM mid-pair
// exchanges when applicable. Per-rank energy and virial contributions are
// stored for the thermo output.
func (s *Simulation) refComputeForces() {
	th := s.Var.ComputeThreading
	if mb, ok := s.Cfg.Potential.(potential.ManyBody); ok {
		s.forRanks(func(id int) {
			r := s.ranks[id]
			r.Atoms.ZeroForces()
			r.Atoms.ZeroRho()
			n := mb.AccumulateRho(r.Atoms, r.NL)
			r.Clock += s.M.Cost.EAMPassTime(n, th)
		})
		s.refRunOp(scalarReverseOp)
		s.forRanks(func(id int) {
			r := s.ranks[id]
			embed := mb.FinishRho(r.Atoms)
			r.peLocal = embed
			r.Clock += s.M.Cost.EAMEmbedTime(r.Atoms.NLocal, th)
		})
		s.refRunOp(scalarForwardOp)
		s.forRanks(func(id int) {
			r := s.ranks[id]
			res := mb.ComputeForce(r.Atoms, r.NL)
			r.peLocal += res.PotentialEnergy
			r.virLocal = res.Virial
			r.Clock += s.M.Cost.EAMPassTime(res.Interactions, th)
		})
		return
	}
	s.forRanks(func(id int) {
		r := s.ranks[id]
		r.Atoms.ZeroForces()
		res := s.Cfg.Potential.Compute(r.Atoms, r.NL)
		r.peLocal = res.PotentialEnergy
		r.virLocal = res.Virial
		r.Clock += s.M.Cost.PairTime(res.Interactions, th)
	})
}

// refEnsureInbox grows (and re-registers) an inbox to hold at least need
// bytes, charging the registration cost to the owning rank unless the
// buffers were pre-registered at their maximum size during setup.
func (s *Simulation) refEnsureInbox(owner *Rank, ib *halo.Inbox, need int) {
	cost := ib.Ensure(s.uts, owner.ID, need, s.Var.Preregistered)
	if cost == 0 {
		return
	}
	owner.Clock += cost
	if s.rec.Enabled() {
		s.rec.Instant(trace.InstantEvent{
			Rank: owner.ID, Name: "register", Time: owner.Clock,
		})
	}
}

// TestStepMatchesReference holds Step to refStep, the serial step it
// replaced, bit for bit: two simulations built alike, one stepped by each,
// must agree after every step on every rank's clock and per-stage
// breakdown, on X, V and F over locals and ghosts, on the EAM Rho and Fp
// arrays and on the thermo samples. The runs cover LJ and EAM, the opt,
// ref and utofu-3stage variants (direct forward puts, MPI, and inbox
// puts), Newton off, a degraded link whose messages fall back to MPI, a TNI that fails
// mid-run under uTofu (a quarantine and re-plan inside a replayed
// round), and enough steps for a neighbor rebuild.
func TestStepMatchesReference(t *testing.T) {
	lj := func(*testing.T) Config {
		cfg := failstopConfig()
		cfg.ThermoEvery = 4
		return cfg
	}
	ljNewtonOff := func(t *testing.T) Config {
		cfg := lj(t)
		cfg.NewtonOn = false
		return cfg
	}
	eam := func(t *testing.T) Config {
		// A thinner skin, so the displacement check asks for a rebuild
		// within the run.
		cfg := eamConfig(t)
		cfg.ThermoEvery = 4
		cfg.Skin = 0.2
		return cfg
	}
	for _, tc := range []struct {
		name  string
		cfg   func(*testing.T) Config
		steps int
		// tniFail fails TNI 2 halfway through the run, under the uTofu
		// variants only.
		tniFail bool
	}{
		{"lj", lj, 22, false},
		{"lj-newton-off", ljNewtonOff, 22, false},
		{"eam", eam, 12, false},
		{"lj-tni-failstop", lj, 22, true},
	} {
		for _, v := range []Variant{Opt(), Ref(), UTofu3Stage()} {
			for _, degrade := range []bool{false, true} {
				if tc.name == "lj-newton-off" && (v.Name != "opt" || degrade) ||
					tc.tniFail && (v.Transport != halo.TransportUTofu || degrade) {
					continue
				}
				name := fmt.Sprintf("%s/%s/degrade=%v", tc.name, v.Name, degrade)
				t.Run(name, func(t *testing.T) {
					got, want := newSim(t, v, tc.cfg(t)), newSim(t, v, tc.cfg(t))
					reg := metrics.New()
					got.SetMetrics(reg)
					if degrade {
						for _, s := range []*Simulation{got, want} {
							src, dst := s.ranks[0].ID, s.ranks[0].recvLinks[0].src.ID
							for range fallbackK {
								s.fb.RecordFailure(src, dst)
							}
						}
					}
					rebuilds := got.Rebuilds
					for step := 1; step <= tc.steps; step++ {
						if tc.tniFail && step == tc.steps/2 {
							for _, s := range []*Simulation{got, want} {
								s.SetFaults(faultinject.New(faultinject.Spec{TNIFails: []faultinject.TNIFail{{Idx: 2, At: s.Now()}}}))
							}
						}
						got.Step()
						want.refStep()
						sameStepState(t, step, got, want)
					}
					if got.Rebuilds == rebuilds {
						t.Errorf("no neighbor rebuild in %d steps", tc.steps)
					}
					fellBack := reg.Counter("sim_p2p_fallback", "msgs").Value()
					if wantFallback := (degrade || tc.tniFail) && v.Transport == halo.TransportUTofu; (fellBack > 0) != wantFallback {
						t.Errorf("%d messages fell back to MPI, want some: %v", fellBack, wantFallback)
					}
					if replans := reg.Counter("sim_tni_replans", "total").Value(); (replans > 0) != tc.tniFail {
						t.Errorf("%d TNI re-plans, want some: %v", replans, tc.tniFail)
					}
				})
			}
		}
	}
}

// sameStepState fails the test at the first word that differs between the
// two simulations.
func sameStepState(t *testing.T, step int, got, want *Simulation) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for id, r := range got.ranks {
		w := want.ranks[id]
		if !same(r.Clock, w.Clock) {
			t.Fatalf("step %d rank %d: clock %v, reference %v", step, id, r.Clock, w.Clock)
		}
		for _, st := range trace.Stages() {
			if !same(r.BD.Get(st), w.BD.Get(st)) {
				t.Fatalf("step %d rank %d: %v time %v, reference %v", step, id, st, r.BD.Get(st), w.BD.Get(st))
			}
		}
		if r.Atoms.NLocal != w.Atoms.NLocal || r.Atoms.Total() != w.Atoms.Total() {
			t.Fatalf("step %d rank %d: %d locals of %d atoms, reference %d of %d",
				step, id, r.Atoms.NLocal, r.Atoms.Total(), w.Atoms.NLocal, w.Atoms.Total())
		}
		n := r.Atoms.Total()
		for _, arr := range []struct {
			name      string
			got, want []vec.V3
		}{
			{"X", r.Atoms.X[:n], w.Atoms.X[:n]},
			{"V", r.Atoms.V[:r.Atoms.NLocal], w.Atoms.V[:w.Atoms.NLocal]},
			{"F", r.Atoms.F[:n], w.Atoms.F[:n]},
		} {
			g, x := f64s(arr.got), f64s(arr.want)
			for i := range g {
				if !same(g[i], x[i]) {
					t.Fatalf("step %d rank %d: %s word %d = %v, reference %v", step, id, arr.name, i, g[i], x[i])
				}
			}
		}
		for _, arr := range []struct {
			name      string
			got, want []float64
		}{
			{"Rho", r.Atoms.Rho, w.Atoms.Rho},
			{"Fp", r.Atoms.Fp, w.Atoms.Fp},
		} {
			if len(arr.got) != len(arr.want) {
				t.Fatalf("step %d rank %d: %d %s values, reference %d", step, id, len(arr.got), arr.name, len(arr.want))
			}
			for i := range arr.got {
				if !same(arr.got[i], arr.want[i]) {
					t.Fatalf("step %d rank %d: %s %d = %v, reference %v", step, id, arr.name, i, arr.got[i], arr.want[i])
				}
			}
		}
	}
	if len(got.Thermo) != len(want.Thermo) {
		t.Fatalf("step %d: %d thermo samples, reference %d", step, len(got.Thermo), len(want.Thermo))
	}
	for i, g := range got.Thermo {
		w := want.Thermo[i]
		if g.Step != w.Step || !same(g.Temperature, w.Temperature) || !same(g.PEPerAtom, w.PEPerAtom) || !same(g.Pressure, w.Pressure) {
			t.Fatalf("step %d: thermo sample %d = %+v, reference %+v", step, i, g, w)
		}
	}
}
