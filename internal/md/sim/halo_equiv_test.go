package sim_test

// Equivalence suite for the internal/halo extraction: the MD engine's
// ghost-region plans and exchange timings must be bit-identical to the
// pre-refactor implementation. The pinned fingerprints below were captured
// on the monolithic internal/md/sim code (before the halo library existed)
// on the Fig. 6 configuration — a 2x2x2-node tile, the Table 2 LJ system at
// 16^3 cells, 20 steps — across the serial and parallel (1/2/4/8 LP) DES
// engines of that time, the uTofu and MPI transports, and fault injection
// on/off. The LP pins now hold the fabric's SetParallel knob, which is
// inert, to the same fingerprints. Any
// drift in the decomposition, link-plan enumeration, resource balance,
// round execution or buffer management shows up here as a changed clock sum
// or position hash.

import (
	"math"
	"testing"

	"tofumd/internal/core"
	"tofumd/internal/faultinject"
	"tofumd/internal/md/sim"
	"tofumd/internal/vec"
)

// equivPin is one pre-refactor fingerprint: the sum of all rank clocks, a
// position hash over every local atom, and the slowest rank's elapsed time
// after 20 steps, plus the setup time before them.
type equivPin struct {
	name    string
	variant sim.Variant
	faults  string
	lps     int
	// kind and cells select the workload; the zero values are the Fig. 6
	// system (LJ, 16^3 cells).
	kind  core.Kind
	cells int

	clockSum float64
	posHash  uint64
	elapsed  float64
	// setup is Simulation.SetupTime, pinned when setup came to share the
	// rebuild step's force sequence.
	setup float64
}

func equivPins() []equivPin {
	const (
		optClockSum = 0.056059708534313656
		optPosHash  = 0xb4bcede66d6703
		optElapsed  = 0.0017530724999999974
		optSetup    = 0.11779400594902038
	)
	return []equivPin{
		// The optimized p2p/uTofu variant is bit-identical whatever
		// SetParallel(2, 4 or 8) is given.
		{"opt-serial", sim.Opt(), "", 0, core.LJ, 0, optClockSum, optPosHash, optElapsed, optSetup},
		{"opt-2lp", sim.Opt(), "", 2, core.LJ, 0, optClockSum, optPosHash, optElapsed, optSetup},
		{"opt-4lp", sim.Opt(), "", 4, core.LJ, 0, optClockSum, optPosHash, optElapsed, optSetup},
		{"opt-8lp", sim.Opt(), "", 8, core.LJ, 0, optClockSum, optPosHash, optElapsed, optSetup},
		// The MPI baseline and the uTofu 3-stage variant share physics (same
		// pattern) but differ in timing.
		{"ref-mpi", sim.Ref(), "", 0, core.LJ, 0,
			0.110842105619608, 0xb4bcede66d7c07, 0.0034687130980392221, 0.0006162933921568625},
		{"utofu-3stage", sim.UTofu3Stage(), "", 0, core.LJ, 0,
			0.10818704636274543, 0xb4bcede66d7c07, 0.0033876897931372644, 0.056009282431372862},
		// Fault injection perturbs timing (retransmits) but not physics, and
		// SetParallel(4) changes neither.
		{"opt-faults-serial", sim.Opt(), "drop=0.0001,seed=7", 0, core.LJ, 0,
			0.056205977314705773, optPosHash, 0.0017578090666666637, optSetup},
		{"opt-faults-4lp", sim.Opt(), "drop=0.0001,seed=7", 4, core.LJ, 0,
			0.056205977314705773, optPosHash, 0.0017578090666666637, optSetup},
		// Captured on the five hand-written pack/round/unpack loops, before
		// they became one descriptor-driven runner. EAM at 12^3 cells pins
		// the two in-pair scalar exchanges (direct forward under opt, inbox
		// forward under ref); 4tni-p2p pins the non-pre-registered uTofu
		// forward, whose unpack is charged only when bytes arrived; the
		// two-shell system (5^3 cells, sub-box below the ghost cutoff) pins
		// multi-iteration 3-stage rounds and their backwards reverse order.
		{"eam-opt", sim.Opt(), "", 0, core.EAM, 12,
			0.053381232494117567, 0x7e9b69afb8552edc, 0.001668940659803919, 0.11773589090196156},
		{"eam-ref", sim.Ref(), "", 0, core.EAM, 12,
			0.12599192590980374, 0x7e9b69afb8549862, 0.0039389248960784258, 0.00042069804901960787},
		{"p2p-4tni", sim.P2P4TNI(), "", 0, core.LJ, 0,
			0.077991902442156855, optPosHash, 0.0024405929049019603, 0.11755307132941263},
		{"utofu-3stage-2shell", sim.UTofu3Stage(), "", 0, core.LJ, 5,
			0.033238806741176415, 0x2c9f77c47c7935c, 0.0010394915421568604, 0.10789975098333411},
	}
}

// equivFingerprint folds every rank clock and local atom position into a
// compact pair the pins compare against.
func equivFingerprint(s *sim.Simulation) (clockSum float64, posHash uint64) {
	for _, r := range s.Ranks() {
		clockSum += r.Clock
		for i := 0; i < r.Atoms.NLocal; i++ {
			x := r.Atoms.X[i]
			posHash ^= math.Float64bits(x.X) + 3*math.Float64bits(x.Y) + 7*math.Float64bits(x.Z)
		}
	}
	return clockSum, posHash
}

func TestHaloRefactorEquivalence(t *testing.T) {
	for _, pin := range equivPins() {
		pin := pin
		t.Run(pin.name, func(t *testing.T) {
			m, err := sim.NewMachine(vec.I3{X: 2, Y: 2, Z: 2})
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := core.BaseConfig(pin.kind)
			if err != nil {
				t.Fatal(err)
			}
			cells := 16
			if pin.cells > 0 {
				cells = pin.cells
			}
			cfg.Cells = vec.I3{X: cells, Y: cells, Z: cells}
			s, err := sim.New(m, pin.variant, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.SetupTime != pin.setup {
				t.Errorf("SetupTime = %.17g, pin %.17g", s.SetupTime, pin.setup)
			}
			if pin.faults != "" {
				spec, err := faultinject.ParseSpec(pin.faults)
				if err != nil {
					t.Fatal(err)
				}
				s.SetFaults(faultinject.New(spec))
			}
			if pin.lps > 1 {
				if err := s.FabricForTest().SetParallel(pin.lps); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 20; i++ {
				s.Step()
			}
			clockSum, posHash := equivFingerprint(s)
			if clockSum != pin.clockSum {
				t.Errorf("clockSum = %.17g, pre-refactor pin %.17g", clockSum, pin.clockSum)
			}
			if posHash != pin.posHash {
				t.Errorf("posHash = %#x, pre-refactor pin %#x", posHash, pin.posHash)
			}
			if got := s.ElapsedMax(); got != pin.elapsed {
				t.Errorf("elapsed = %.17g, pre-refactor pin %.17g", got, pin.elapsed)
			}
		})
	}
}
