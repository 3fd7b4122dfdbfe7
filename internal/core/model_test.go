package core

import (
	"testing"

	"tofumd/internal/halo"
	"tofumd/internal/md/sim"
	"tofumd/internal/tofu"
	"tofumd/internal/vec"
)

// TestAnalyticModelAgreesWithFabric ties the section 3.1 analytic time
// model (Equations 3-8) to the fabric simulator: the T_0..T_5 single-message
// times are measured on the fabric, fed into halo.Model, and the model's
// predicted pattern ordering must match full halo-exchange measurements.
func TestAnalyticModelAgreesWithFabric(t *testing.T) {
	m, err := sim.NewMachine(vec.I3{X: 4, Y: 6, Z: 4})
	if err != nil {
		t.Fatal(err)
	}
	fab := tofu.NewFabric(m.Map, m.Params)

	// Geometry of the 65K/768-node point.
	a, r := 2.94, 2.8
	density := 0.8442
	msgBytes := func(vol float64) int { return int(vol*density) * 24 }

	// Measure single-message times for the Table 1 classes.
	single := func(dir vec.I3, bytes int) float64 {
		dst := m.Map.NeighborRank(0, dir)
		tr := []*tofu.Transfer{{Src: 0, Dst: dst, TNI: 0, VCQ: 1, Bytes: bytes}}
		fab.RunRound(tr, tofu.IfaceUTofu)
		return tr[0].RecvComplete
	}
	var model halo.Model
	model.TInj = m.Params.UTofuInjectGap
	// 3-stage staged slabs: the paper's T0..T2.
	model.T[0] = single(vec.I3{X: 2}, msgBytes(a*a*r))
	model.T[1] = single(vec.I3{Y: 2}, msgBytes(a*r*(a+2*r)))
	model.T[2] = single(vec.I3{Z: 1}, msgBytes((a+2*r)*(a+2*r)*r))
	// p2p classes: T3 face, T4 edge, T5 corner.
	model.T[3] = single(vec.I3{X: 2}, msgBytes(a*a*r))
	model.T[4] = single(vec.I3{X: 2, Y: 2}, msgBytes(a*r*r))
	model.T[5] = single(vec.I3{X: 2, Y: 2, Z: 1}, msgBytes(r*r*r))

	// The paper's conclusions from the model:
	// (1) with parallel injection, p2p beats 3-stage (Eq. 7 vs Eq. 8);
	if model.P2PParallel() >= model.ThreeStageParallel() {
		t.Errorf("model: p2p-parallel %.3g not below 3stage-parallel %.3g",
			model.P2PParallel(), model.ThreeStageParallel())
	}
	// (2) naive orderings: opt variants improve on naive ones.
	if model.ThreeStageOpt() >= model.ThreeStageNaive() {
		t.Error("model: Eq5 must improve on Eq3")
	}
	// Eq. 6 schedules the cheapest message last; naive ordering (Eq. 4)
	// can end on the slowest one.
	worst := model.T[3]
	for _, v := range []float64{model.T[4], model.T[5]} {
		if v > worst {
			worst = v
		}
	}
	if model.P2POpt() > model.P2PNaive(worst) {
		t.Error("model: Eq6 must not exceed Eq4 with the slowest message last")
	}

	// And the fabric-level halo measurement agrees with prediction (1).
	per := 65536.0 / 3072.0
	halo := func(v sim.Variant) float64 {
		tm, err := HaloTime(ModelSpec{
			Kind: LJ, Variant: v,
			FullShape:    vec.I3{X: 8, Y: 12, Z: 8},
			TileShape:    vec.I3{X: 4, Y: 6, Z: 4},
			AtomsPerRank: per,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tm
	}
	if halo(sim.Opt()) >= halo(sim.UTofu3Stage()) {
		t.Error("fabric: parallel p2p halo not faster than uTofu 3-stage")
	}
}
