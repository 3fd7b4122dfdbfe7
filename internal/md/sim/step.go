package sim

import (
	"math"

	"tofumd/internal/md/neighbor"
	"tofumd/internal/md/thermo"
	"tofumd/internal/mpi"
	"tofumd/internal/tofu"
	"tofumd/internal/trace"
	"tofumd/internal/units"
)

// Run advances the simulation by the given number of MD steps.
func (s *Simulation) Run(steps int) {
	for i := 0; i < steps; i++ {
		s.Step()
	}
}

// Step advances one MD step through the LAMMPS stage sequence: initial
// integrate (Modify), neighbor check / ghost communication (Other/Comm),
// force evaluation (Pair), reverse communication (Comm), final integrate
// (Modify) and periodic thermo output (Other).
func (s *Simulation) Step() {
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

	integrate := func(r *Rank) { s.nve.FinalIntegrate(r.Atoms) }
	s.forceSequence(rebuild, integrate)

	s.stage(trace.Modify, "integrate2", func() {
		if !s.Cfg.NewtonOn {
			s.forRanks(func(id int) { integrate(s.ranks[id]) })
		}
		for _, r := range s.ranks {
			r.Clock += s.M.Cost.IntegrateTime(r.Atoms.NLocal, s.Var.ComputeThreading)
		}
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

// forceSequence runs the ghost communication, the force evaluation and,
// with Newton on, the reverse communication, each in its own stage; a
// rebuild first migrates atoms and rebuilds the ghosts. Every halo
// operation carries the rank work that needs only its bytes beside its
// last round: the neighbor build and first force pass after border (the
// pass alone after forward), EAM's embedding after the density reverse,
// its force pass after the derivative forward, and then after reverse.
// Their clock charges are applied after the join, in the neigh, pair and
// caller's stages.
func (s *Simulation) forceSequence(rebuild bool, then func(r *Rank)) {
	if rebuild {
		s.stage(trace.Comm, "exchange", s.doExchange)
		s.stage(trace.Comm, "border", func() {
			s.doBorder(func(r *Rank) {
				s.buildNeighborList(r)
				s.firstForcePass(r)
			})
		})
		s.stage(trace.Neigh, "neigh", func() {
			for _, r := range s.ranks {
				r.Clock += s.M.Cost.NeighTime(r.Atoms.Total(), r.NL.Candidates, s.Var.ComputeThreading)
			}
			s.Rebuilds++
		})
	} else {
		s.stage(trace.Comm, "forward", func() {
			s.runOp(s.forward(), s.firstForcePass)
		})
	}
	s.stage(trace.Pair, "pair", s.finishForces)
	if s.Cfg.NewtonOn {
		s.stage(trace.Comm, "reverse", func() { s.runOp(reverseOp, then) })
	}
}

// stage runs fn and attributes every rank's clock advance to st. When a
// recorder is attached, the advance is also emitted as one named span per
// rank that moved.
func (s *Simulation) stage(st trace.Stage, name string, fn func()) {
	t0 := s.snapshotClocks()
	fn()
	for i, r := range s.ranks {
		if s.rec.Enabled() && r.Clock > t0[i] {
			s.rec.Span(trace.SpanEvent{
				Rank: r.ID, Name: name, Stage: st.String(), Step: s.step,
				Start: t0[i], End: r.Clock,
			})
		}
		// Reuse t0 as the per-rank advance of this invocation.
		t0[i] = r.Clock - t0[i]
		r.BD.Add(st, t0[i])
	}
	if s.met != nil {
		s.met.observeStage(name, st, t0, s.ranks)
	}
}

// checkDisplacement runs the half-skin scan and the global LOR allreduce of
// the dangerous-build flag (Table 2 "check yes"), returning whether a
// rebuild is required.
func (s *Simulation) checkDisplacement() bool {
	half2 := (s.Cfg.Skin / 2) * (s.Cfg.Skin / 2)
	flags := make([][]float64, len(s.ranks))
	s.forRanks(func(id int) {
		r := s.ranks[id]
		v := 0.0
		if neighbor.MaxDisplacement2(r.Atoms.X, r.XHold, r.Atoms.NLocal) > half2 {
			v = 1
		}
		flags[id] = []float64{v}
		r.Clock += s.M.Cost.ScanTime(r.Atoms.NLocal)
	})
	out, _, err := s.mpiComm.Allreduce(flags, mpi.OpLor)
	if err != nil {
		panic("sim: allreduce failed: " + err.Error())
	}
	s.chargeAllreduce(8)
	return out[0] != 0
}

// chargeAllreduce synchronizes all rank clocks to the allreduce completion,
// charging the collective at the configured machine scale.
func (s *Simulation) chargeAllreduce(bytes int) {
	n := s.M.Map.Ranks()
	if s.Cfg.ScaleRanks > n {
		n = s.Cfg.ScaleRanks
	}
	t := s.fab.AllreduceTime(n, units.Bytes(bytes), tofu.IfaceMPI)
	var entry float64
	for _, r := range s.ranks {
		if r.Clock > entry {
			entry = r.Clock
		}
	}
	done := entry + t
	for _, r := range s.ranks {
		r.Clock = done
	}
}

// rescaleTemperature applies the velocity-rescale thermostat: measure the
// global temperature (one allreduce) and, if it strays beyond the window,
// scale every velocity toward the target.
func (s *Simulation) rescaleTemperature() {
	contrib := make([][]float64, len(s.ranks))
	s.forRanks(func(id int) {
		r := s.ranks[id]
		var ke2 float64
		for i := 0; i < r.Atoms.NLocal; i++ {
			ke2 += s.Cfg.Potential.Mass() * r.Atoms.V[i].Norm2()
		}
		contrib[id] = []float64{ke2, float64(r.Atoms.NLocal)}
		r.Clock += s.M.Cost.ScanTime(r.Atoms.NLocal)
	})
	sum, _, err := s.mpiComm.Allreduce(contrib, mpi.OpSum)
	if err != nil {
		panic("sim: rescale allreduce failed: " + err.Error())
	}
	s.chargeAllreduce(16)
	n := sum[1]
	if n <= 1 {
		return
	}
	dof := 3 * (n - 1)
	temp := s.U.Mvv2e * sum[0] / (dof * s.U.Boltz)
	if temp <= 0 || math.Abs(temp-s.Cfg.RescaleTarget) <= s.Cfg.RescaleWindow {
		return
	}
	factor := math.Sqrt(s.Cfg.RescaleTarget / temp)
	s.forRanks(func(id int) {
		r := s.ranks[id]
		for i := 0; i < r.Atoms.NLocal; i++ {
			r.Atoms.V[i] = r.Atoms.V[i].Scale(factor)
		}
		r.Clock += s.M.Cost.ScanTime(r.Atoms.NLocal)
	})
}

// recordThermo computes and stores a thermodynamic sample; charged to the
// Other stage when called mid-run.
func (s *Simulation) recordThermo(charge bool) {
	contrib := make([][]float64, len(s.ranks))
	s.forRanks(func(id int) {
		r := s.ranks[id]
		l := thermo.Gather(r.Atoms, s.Cfg.Potential.Mass(), r.peLocal, r.virLocal)
		contrib[id] = l.Slice()
		if charge {
			r.Clock += s.M.Cost.ThermoTime(r.Atoms.NLocal)
		}
	})
	sum, _, err := s.mpiComm.Allreduce(contrib, mpi.OpSum)
	if err != nil {
		panic("sim: thermo allreduce failed: " + err.Error())
	}
	if charge {
		s.chargeAllreduce(8 * 4)
	}
	box := s.dec.Box
	g := thermo.Reduce(thermo.FromSlice(sum), box.X*box.Y*box.Z, s.U)
	s.Thermo = append(s.Thermo, ThermoSample{
		Step:        s.step,
		Temperature: g.Temperature,
		PEPerAtom:   g.PotentialPerAtom,
		Pressure:    g.Pressure,
	})
}

// TotalEnergyPerAtom returns KE+PE per atom of the latest thermo sample's
// underlying state; used by conservation tests.
func (s *Simulation) TotalEnergyPerAtom() float64 {
	contrib := make([][]float64, len(s.ranks))
	for id, r := range s.ranks {
		l := thermo.Gather(r.Atoms, s.Cfg.Potential.Mass(), r.peLocal, r.virLocal)
		contrib[id] = l.Slice()
	}
	sum, _, err := s.mpiComm.Allreduce(contrib, mpi.OpSum)
	if err != nil {
		panic("sim: allreduce failed: " + err.Error())
	}
	l := thermo.FromSlice(sum)
	if l.N == 0 {
		return 0
	}
	return (0.5*s.U.Mvv2e*l.KE2 + l.PE) / l.N
}
