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

// Fig15Row compares the patterns in one neighbor regime.
type Fig15Row struct {
	// Neighbors is the per-rank neighbor count: 26 (full list, one shell),
	// 62 (Newton on, two shells) or 124 (Newton off, two shells).
	Neighbors int
	// CommThreeStage and CommP2P are comm-stage times of the run.
	CommThreeStage, CommP2P float64
	// P2PWins reports whether the optimized p2p beats 3-stage.
	P2PWins bool
}

// Fig15Result reproduces the extended experiment: the optimized p2p pattern
// helps at 26 and 62 neighbors but loses to 3-stage at 124 (p2p message
// count grows as n^2-like while 3-stage grows linearly).
type Fig15Result struct {
	Rows []Fig15Row
}

// Fig15 runs the three regimes functionally on a tile.
func Fig15(opt Options) (Fig15Result, error) {
	steps := opt.steps(15)
	m, err := sim.NewMachine(opt.tileFor())
	if err != nil {
		return Fig15Result{}, err
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

	var out Fig15Result
	for _, nb := range []int{26, 62, 124} {
		cfg, err := mkConfig(nb)
		if err != nil {
			return out, err
		}
		t3, err := runComm(sim.UTofu3Stage(), cfg)
		if err != nil {
			return out, fmt.Errorf("3stage %d: %w", nb, err)
		}
		tp, err := runComm(sim.Opt(), cfg)
		if err != nil {
			return out, fmt.Errorf("p2p %d: %w", nb, err)
		}
		out.Rows = append(out.Rows, Fig15Row{
			Neighbors:      nb,
			CommThreeStage: t3,
			CommP2P:        tp,
			P2PWins:        tp < t3,
		})
	}
	return out, nil
}

// Format renders the Fig. 15 reproduction.
func (f Fig15Result) Format() string {
	var rows [][]string
	for _, r := range f.Rows {
		winner := "3-stage"
		if r.P2PWins {
			winner = "p2p"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Neighbors),
			ms(r.CommThreeStage), ms(r.CommP2P), winner,
		})
	}
	s := "Fig. 15: comm time by neighbor count (ms per run)\n"
	return s + table([]string{"neighbors", "uTofu-3stage", "opt p2p", "winner"}, rows)
}
