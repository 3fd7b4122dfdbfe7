package bench

import (
	"tofumd/internal/core"
	"tofumd/internal/md/sim"
)

// Fig6Row is one bar pair of Fig. 6: the ghost-exchange message time of a
// variant for the small (65K) and big (1.7M) systems, excluding packing.
type Fig6Row struct {
	Variant   string
	SmallTime float64 // seconds per exchange, 65K system
	BigTime   float64 // seconds per exchange, 1.7M system
}

// Fig6Result reproduces Fig. 6: message transmission time per communication
// scheme on the 768-node configuration.
type Fig6Result struct {
	Rows []Fig6Row
	// ReductionVsMPI3Stage is the uTofu-p2p improvement over the MPI
	// 3-stage pattern on the small system.
	ReductionVsMPI3Stage float64
}

// Fig6 measures one forward+reverse halo exchange per variant.
func Fig6(opt Options) (Fig6Result, error) {
	tile := opt.tileFor()
	full := core.LJSmall().FullShape
	fullRanks := full.Prod() * 4
	perRankSmall := float64(core.LJSmall().Atoms) / float64(fullRanks)
	perRankBig := float64(core.LJBig().Atoms) / float64(fullRanks)

	var res Fig6Result
	for _, v := range sim.StepByStepVariants() {
		spec := core.ModelSpec{Kind: core.LJ, Variant: v, FullShape: full, TileShape: tile, Rec: opt.Rec, Met: opt.Met}
		spec.AtomsPerRank = perRankSmall
		small, err := core.HaloTime(spec)
		if err != nil {
			return res, err
		}
		spec.AtomsPerRank = perRankBig
		big, err := core.HaloTime(spec)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, Fig6Row{Variant: v.Name, SmallTime: small, BigTime: big})
	}
	byName := map[string]float64{}
	for _, r := range res.Rows {
		byName[r.Variant] = r.SmallTime
	}
	if byName["ref"] > 0 {
		res.ReductionVsMPI3Stage = 1 - byName["4tni-p2p"]/byName["ref"]
	}
	return res, nil
}

// Format renders the Fig. 6 reproduction.
func (f Fig6Result) Format() string {
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{r.Variant, us(r.SmallTime), us(r.BigTime)})
	}
	s := "Fig. 6: ghost-exchange message time, excluding packing (us per exchange)\n"
	return s + table([]string{"variant", "65K atoms", "1.7M atoms"}, rows)
}
