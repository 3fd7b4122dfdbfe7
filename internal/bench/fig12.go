package bench

import (
	"fmt"

	"tofumd/internal/core"
	"tofumd/internal/md/sim"
	"tofumd/internal/topo"
	"tofumd/internal/trace"
)

// Fig12 reproduces Fig. 12: the step-by-step comparison of every variant on
// the 768-node configuration for the 65K and 1.7M systems, LJ and EAM,
// modeled on the whole torus at each system's per-rank load. The series are
// each variant's comm and total times over the run (lower is better) and the
// headline opt-vs-ref speedups and comm reduction (higher is better).
func Fig12(opt Options) (*Artifact, error) {
	steps := opt.steps(20)
	if opt.Full && opt.Steps == 0 {
		steps = 99
	}
	a := NewArtifact("fig12", opt)
	speedup := map[string]float64{}
	var commReduction float64
	for _, wl := range []core.Workload{core.LJSmall(), core.LJBig(), core.EAMSmall(), core.EAMBig()} {
		var refTotal, refComm float64
		for _, v := range sim.StepByStepVariants() {
			res, err := core.Modeled(core.ModelSpec{
				Kind:         wl.Kind,
				Variant:      v,
				FullShape:    wl.FullShape,
				TileShape:    wl.FullShape,
				AtomsPerRank: float64(wl.Atoms) / float64(wl.FullShape.Prod()*topo.DefaultBlock.Prod()),
				Steps:        steps,
				Rec:          opt.Rec,
				Met:          opt.Met,
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", wl.Name, v.Name, err)
			}
			comm, total := res.Breakdown.Get(trace.Comm), res.Breakdown.Total()
			a.Add(key(wl.Name, v.Name, "comm"), "s", comm, DirLower)
			a.Add(key(wl.Name, v.Name, "total"), "s", total, DirLower)
			switch v.Name {
			case "ref":
				refTotal, refComm = total, comm
			case "opt":
				speedup[wl.Name] = refTotal / total
				if wl.Name == "lj-65k" {
					commReduction = 1 - comm/refComm
				}
			}
		}
	}
	a.Add("speedup/small_lj", "x", speedup["lj-65k"], DirHigher)
	a.Add("speedup/small_eam", "x", speedup["eam-65k"], DirHigher)
	a.Add("speedup/big_lj", "x", speedup["lj-1.7m"], DirHigher)
	a.Add("speedup/big_eam", "x", speedup["eam-1.7m"], DirHigher)
	a.Add("comm_reduction/small_lj", "frac", commReduction, DirHigher)
	return a, nil
}
