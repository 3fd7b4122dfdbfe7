package bench

import (
	"fmt"

	"tofumd/internal/core"
	"tofumd/internal/md/lattice"
	"tofumd/internal/md/potential"
	"tofumd/internal/md/sim"
	"tofumd/internal/trace"
	"tofumd/internal/units"
)

// Fig15 reproduces the extended experiment: the optimized p2p pattern helps
// at 26 and 62 per-rank neighbors but loses to 3-stage at 124 (p2p message
// count grows as n^2-like while 3-stage grows linearly). The series are each
// regime's comm-stage time under both patterns (lower is better) and whether
// p2p wins, which must not flip. The regimes are 26 neighbors (full list,
// one shell), 62 (Newton on, two shells) and 124 (Newton off, two shells).
//
// The regimes run functionally on a tile. They stay off core.Modeled, which
// the other 768-node tables read, because the model assumes Newton on with
// half lists (see modelSetup in core/modeled.go), while the 26- and
// 124-neighbor regimes run Newton off with full lists.
func Fig15(opt Options) (*Artifact, error) {
	steps := opt.steps(15)
	m, err := sim.NewMachine(opt.tileFor())
	if err != nil {
		return nil, err
	}
	grid := m.Map.Grid

	mkConfig := func(neighbors int) (sim.Config, error) {
		cfg, err := core.BaseConfig(core.LJ)
		if err != nil {
			return cfg, err
		}
		switch neighbors {
		case 26:
			// "Potentials with Newton's 3rd law disabled or needing a full
			// neighbor list have to communicate with 26 neighbors"
			// (section 4.4) — this is the Newton-off instance; the
			// Tersoff-class full-list instance is exercised by the
			// internal/md/sim Tersoff tests.
			lj := potential.NewLJ(1, 1, 2.5)
			lj.FullList = true
			cfg.Potential = lj
			cfg.NewtonOn = false
			cfg.Cells = lattice.CellsForAtomsOnGrid(24*grid.Prod(), grid)
		case 62: // Newton on, sub-box < cutoff (two shells)
			cfg.NewtonOn = true
			cfg.Cells = lattice.CellsForAtomsOnGrid(8*grid.Prod(), grid)
		case 124: // Newton off + full list, two shells
			lj := potential.NewLJ(1, 1, 2.5)
			lj.FullList = true
			cfg.Potential = lj
			cfg.NewtonOn = false
			cfg.Cells = lattice.CellsForAtomsOnGrid(8*grid.Prod(), grid)
		}
		cfg.UnitsStyle = units.LJ
		cfg.ScaleRanks = 3072
		return cfg, nil
	}

	runComm := func(v sim.Variant, cfg sim.Config) (float64, error) {
		r, err := core.Start(core.RunSpec{Config: &cfg, TileShape: opt.tileFor(), Variant: v})
		if err != nil {
			return 0, err
		}
		defer r.Close()
		r.Sim().Run(steps)
		return trace.Merge(r.Sim().Breakdowns()).Get(trace.Comm), nil
	}

	a := NewArtifact("fig15", opt)
	for _, nb := range []int{26, 62, 124} {
		cfg, err := mkConfig(nb)
		if err != nil {
			return nil, err
		}
		t3, err := runComm(sim.UTofu3Stage(), cfg)
		if err != nil {
			return nil, fmt.Errorf("3stage %d: %w", nb, err)
		}
		tp, err := runComm(sim.Opt(), cfg)
		if err != nil {
			return nil, fmt.Errorf("p2p %d: %w", nb, err)
		}
		label := fmt.Sprintf("nb%d", nb)
		a.Add(key(label, "comm_3stage"), "s", t3, DirLower)
		a.Add(key(label, "comm_p2p"), "s", tp, DirLower)
		a.Add(key(label, "p2p_wins"), "bool", boolSeries(tp < t3), DirEqual)
	}
	return a, nil
}
