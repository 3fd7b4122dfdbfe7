package bench

import (
	"fmt"

	"tofumd/internal/core"
	"tofumd/internal/md/sim"
	"tofumd/internal/topo"
)

// Fig14Row is one weak-scaling point.
type Fig14Row struct {
	Nodes int
	Kind  string
	Atoms int
	// Perf is simulated tau/day (lj) or us/day (metal) of the optimized
	// code.
	Perf float64
	// AtomStepsPerSec is the aggregate throughput (atoms x steps /
	// second), the quantity that scales linearly in Fig. 14.
	AtomStepsPerSec float64
	// LinearityVsFirst compares throughput-per-node against the first
	// point (1.0 = perfectly linear).
	LinearityVsFirst float64
}

// Fig14Result reproduces Fig. 14: weak scaling from 768 to 20,736 nodes
// with 100K (LJ) / 72K (EAM) atoms per core, up to the final atom counts
// Targets holds. Runs are modeled — no machine on Earth holds ~1e11
// functional atoms in one process.
type Fig14Result struct {
	Rows []Fig14Row
}

// Fig14 runs the weak-scaling sweep.
func Fig14(opt Options) (Fig14Result, error) {
	steps := opt.steps(99)
	shapes := topo.PaperWeakScalingShapes()
	tileCap := 256
	if opt.Full {
		tileCap = 4096
	}
	var out Fig14Result
	for _, kind := range []core.Kind{core.LJ, core.EAM} {
		perCore := core.WeakScalingAtomsPerCore(kind)
		perRank := float64(perCore * 12) // 12 compute cores per rank
		var firstThroughputPerNode float64
		for i, shape := range shapes {
			res, err := core.Modeled(core.ModelSpec{
				Kind:         kind,
				Variant:      sim.Opt(),
				FullShape:    shape,
				TileShape:    core.DefaultTile(shape, tileCap),
				AtomsPerRank: perRank,
				Steps:        steps,
			})
			if err != nil {
				return out, err
			}
			row := Fig14Row{
				Nodes:           shape.Prod(),
				Kind:            kind.String(),
				Atoms:           res.Atoms,
				Perf:            res.PerfPerDay,
				AtomStepsPerSec: float64(res.Atoms) * float64(steps) / res.Elapsed,
			}
			perNode := row.AtomStepsPerSec / float64(row.Nodes)
			if i == 0 {
				firstThroughputPerNode = perNode
			}
			row.LinearityVsFirst = perNode / firstThroughputPerNode
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Format renders the Fig. 14 reproduction.
func (f Fig14Result) Format() string {
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Nodes), r.Kind,
			fmt.Sprintf("%.3g", float64(r.Atoms)),
			fmt.Sprintf("%.4g", r.Perf),
			fmt.Sprintf("%.3g", r.AtomStepsPerSec),
			pct(r.LinearityVsFirst),
		})
	}
	s := "Fig. 14: weak scaling, 100K/72K atoms per core (opt code)\n"
	return s + table([]string{"nodes", "pot", "atoms", "perf", "atom-steps/s", "linearity"}, rows)
}
