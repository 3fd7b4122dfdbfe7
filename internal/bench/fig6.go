package bench

import (
	"tofumd/internal/core"
	"tofumd/internal/md/sim"
)

// Fig6 reproduces Fig. 6: the ghost-exchange message time, excluding
// packing, of one forward+reverse halo exchange per variant on the 768-node
// configuration, for the small (65K) and big (1.7M) systems (lower is
// better), and the uTofu-p2p improvement over the MPI 3-stage pattern on the
// small system (higher is better).
func Fig6(opt Options) (*Artifact, error) {
	tile := opt.tileFor()
	full := core.LJSmall().FullShape
	fullRanks := full.Prod() * 4
	perRankSmall := float64(core.LJSmall().Atoms) / float64(fullRanks)
	perRankBig := float64(core.LJBig().Atoms) / float64(fullRanks)

	a := NewArtifact("fig6", opt)
	var ref, p2p float64
	for _, v := range sim.StepByStepVariants() {
		spec := core.ModelSpec{Kind: core.LJ, Variant: v, FullShape: full, TileShape: tile, Rec: opt.Rec, Met: opt.Met}
		spec.AtomsPerRank = perRankSmall
		small, err := core.HaloTime(spec)
		if err != nil {
			return nil, err
		}
		spec.AtomsPerRank = perRankBig
		big, err := core.HaloTime(spec)
		if err != nil {
			return nil, err
		}
		a.Add(key(v.Name, "small_time"), "s", small, DirLower)
		a.Add(key(v.Name, "big_time"), "s", big, DirLower)
		switch v.Name {
		case "ref":
			ref = small
		case "4tni-p2p":
			p2p = small
		}
	}
	var reduction float64
	if ref > 0 {
		reduction = 1 - p2p/ref
	}
	a.Add("reduction_vs_mpi3stage", "frac", reduction, DirHigher)
	return a, nil
}
