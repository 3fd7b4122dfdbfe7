package bench

import (
	"fmt"

	"tofumd/internal/core"
	"tofumd/internal/md/sim"
	"tofumd/internal/topo"
)

// Fig14 reproduces Fig. 14: weak scaling of the optimized code from 768 to
// 20,736 nodes with 100K (LJ) / 72K (EAM) atoms per core, up to the final
// atom counts Targets holds. The series are each point's aggregate
// throughput (atoms x steps / second, higher is better) and its throughput
// per node against the first point's (1.0 = perfectly linear), then each
// kind's final atom count. Runs are modeled — no machine on Earth holds
// ~1e11 functional atoms in one process.
func Fig14(opt Options) (*Artifact, error) {
	steps := opt.steps(99)
	shapes := topo.PaperWeakScalingShapes()
	tileCap := 256
	if opt.Full {
		tileCap = 4096
	}
	a := NewArtifact("fig14", opt)
	var atoms []int
	for _, kind := range []core.Kind{core.LJ, core.EAM} {
		perCore := core.WeakScalingAtomsPerCore(kind)
		perRank := float64(perCore * 12) // 12 compute cores per rank
		var firstThroughputPerNode float64
		var final int
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
				return nil, err
			}
			throughput := float64(res.Atoms) * float64(steps) / res.Elapsed
			perNode := throughput / float64(shape.Prod())
			if i == 0 {
				firstThroughputPerNode = perNode
			}
			nodes := fmt.Sprintf("n%d", shape.Prod())
			a.Add(key(kind.String(), nodes, "atom_steps_per_sec"), "atom*step/s", throughput, DirHigher)
			a.Add(key(kind.String(), nodes, "linearity"), "frac", perNode/firstThroughputPerNode, DirHigher)
			final = res.Atoms
		}
		atoms = append(atoms, final)
	}
	a.Add("atoms/lj", "atoms", float64(atoms[0]), DirEqual)
	a.Add("atoms/eam", "atoms", float64(atoms[1]), DirEqual)
	return a, nil
}
