package sim

import (
	"math"
	"testing"

	"tofumd/internal/md/lattice"
	"tofumd/internal/md/potential"
	"tofumd/internal/oracle"
	"tofumd/internal/trace"
	"tofumd/internal/units"
	"tofumd/internal/vec"
)

// fullListConfig is the Fig. 15 "26 neighbors" regime: a potential needing
// a full neighbor list, Newton off, one shell.
func fullListConfig() Config {
	lj := potential.NewLJ(1, 1, 2.5)
	lj.FullList = true
	cfg := ljConfig()
	cfg.Potential = lj
	cfg.NewtonOn = false
	return cfg
}

// twoShellConfig shrinks the per-rank sub-box below the ghost cutoff so
// ranks must talk to their 2-shell neighborhood (62 with Newton on, 124
// with Newton off) — the Fig. 15 extended regimes.
func twoShellConfig(newton bool) Config {
	cfg := ljConfig()
	// 5x5x5 cells on a 4x4x2 rank grid: sub-box sides (2.1, 2.1, 4.2)
	// against a ghost cutoff of 2.8 -> two shells in x and y.
	cfg.Cells = vec.I3{X: 5, Y: 5, Z: 5}
	cfg.Lat = lattice.FCCFromDensity(0.8442)
	cfg.NewtonOn = newton
	if !newton {
		lj := potential.NewLJ(1, 1, 2.5)
		lj.FullList = true
		cfg.Potential = lj
	}
	cfg.UnitsStyle = units.LJ
	return cfg
}

func TestFullListForcesMatchBruteForce(t *testing.T) {
	cfg := fullListConfig()
	cfg.Cells = vec.I3{X: 8, Y: 8, Z: 8}
	for _, v := range []Variant{Ref(), Opt()} {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			s := newSim(t, v, cfg)
			s.Step()
			if err := oracle.Check("forces-brute", forceError(t, s, bruteForces(s))); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestFullListP2PUses26Links(t *testing.T) {
	s := newSim(t, Opt(), fullListConfig())
	r := s.Ranks()[0]
	if got := len(r.sendLinks); got != 26 {
		t.Errorf("send links = %d, want 26 (Newton off)", got)
	}
	if got := len(r.recvLinks); got != 26 {
		t.Errorf("recv links = %d, want 26", got)
	}
}

func TestTwoShellForcesMatchBruteForce(t *testing.T) {
	for _, newton := range []bool{true, false} {
		cfg := twoShellConfig(newton)
		for _, v := range []Variant{Ref(), Opt()} {
			v := v
			name := v.Name + "-newton-on"
			if !newton {
				name = v.Name + "-newton-off"
			}
			t.Run(name, func(t *testing.T) {
				s := newSim(t, v, cfg)
				s.Step()
				if err := oracle.Check("forces-brute", forceError(t, s, bruteForces(s))); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

func TestTwoShellLinkCounts(t *testing.T) {
	// Newton on: 62 upper-shell receive links; Newton off: 124.
	sOn := newSim(t, Opt(), twoShellConfig(true))
	if got := len(sOn.Ranks()[0].recvLinks); got != 62 {
		t.Errorf("2-shell Newton-on recv links = %d, want 62", got)
	}
	sOff := newSim(t, Opt(), twoShellConfig(false))
	if got := len(sOff.Ranks()[0].recvLinks); got != 124 {
		t.Errorf("2-shell Newton-off recv links = %d, want 124", got)
	}
	// 3-stage scales linearly: 6 links per shell on each rank's send side.
	s3 := newSim(t, Ref(), twoShellConfig(true))
	if got := len(s3.Ranks()[0].sendLinks); got != 12 {
		t.Errorf("2-shell 3-stage send links = %d, want 12", got)
	}
}

func TestTwoShellAtomCountConserved(t *testing.T) {
	s := newSim(t, Opt(), twoShellConfig(true))
	want := s.TotalAtoms()
	s.Run(25)
	if err := oracle.Check("atom-count", math.Abs(float64(s.TotalAtoms()-want))); err != nil {
		t.Error(err)
	}
}

// TestThermostatEquilibrates: the velocity-rescale fix pulls a melting
// system to its target temperature and holds it there.
func TestThermostatEquilibrates(t *testing.T) {
	cfg := ljConfig()
	cfg.Temperature = 3.0
	cfg.RescaleEvery = 5
	cfg.RescaleTarget = 1.0
	cfg.RescaleWindow = 0.02
	cfg.ThermoEvery = 0
	s := newSim(t, Opt(), cfg)
	s.Run(60)
	s.recordThermo(false)
	got := s.Thermo[len(s.Thermo)-1].Temperature
	if got < 0.9 || got > 1.1 {
		t.Errorf("temperature %.3f after thermostatting to 1.0", got)
	}
	// The thermostat work must be visible in the Other stage.
	if s.Breakdowns()[0].Get(trace.Other) <= 0 {
		t.Error("thermostat charged nothing to Other")
	}
}
