package core

import (
	"fmt"
	"math"
	"testing"

	"tofumd/internal/halo"
	"tofumd/internal/machine"
	"tofumd/internal/md/sim"
	"tofumd/internal/tofu"
	"tofumd/internal/trace"
	"tofumd/internal/units"
	"tofumd/internal/vec"
)

// refAtoms is a verbatim copy of modelSetup.atoms before the per-class
// table: the expected ghost atoms of one link.
func refAtoms(ms *modelSetup, l halo.LinkSpec) float64 {
	a, r := ms.side, ms.ghCut
	perIter := ms.kp.density / float64(ms.shells)
	switch l.Stage3Dim {
	case -1:
		return halo.MessageVolume(l.Dir, a, r) * ms.kp.density
	case 0:
		return a * a * r * perIter
	case 1:
		return a * r * (a + 2*r) * perIter
	}
	return (a + 2*r) * (a + 2*r) * r * perIter
}

// refRounds is a verbatim copy of modelSetup.rounds before it wrote its own
// records: a slab Take per round, a LinkSpec copy per link and a composite
// literal per transfer.
func refRounds(ms *modelSetup, perAtomBytes int, reverse, forceMPI bool, extraPerLink int, cost machine.CostModel) float64 {
	fab, m, v, plan := ms.fab, ms.m, ms.v, ms.plan
	iface := tofu.IfaceUTofu
	if v.Transport == halo.TransportMPI || forceMPI {
		iface = tofu.IfaceMPI
	}
	senders, res, dres := plan.Send, ms.fwd, ms.rev
	if reverse {
		senders, res, dres = plan.Recv, ms.rev, ms.fwd
	}
	total := 0.0
	for i := range plan.Rounds {
		k := plan.Rounds[i]
		if reverse {
			k = plan.Rounds[len(plan.Rounds)-1-i]
		}
		var bytesPerRank float64
		transfers := fab.Transfers(len(plan.Links) / len(plan.Rounds))
		n := 0
		for src, links := range senders {
			for _, li := range links {
				l := plan.Links[li]
				if !halo.InRound(l.Stage3Dim, l.Stage3Iter, k) {
					continue
				}
				bytes := int(refAtoms(ms, l)*float64(perAtomBytes)) + extraPerLink
				if bytes == 0 {
					continue
				}
				dst := l.Dst
				if reverse {
					dst = l.Src
				}
				*transfers[n] = tofu.Transfer{
					Src: src, Dst: dst, TNI: int(res[li].TNI), VCQ: src*8 + int(res[li].TNI),
					Thread: int(res[li].Thread), DstThread: int(dres[li].Thread),
					Bytes:   bytes,
					TwoStep: iface == tofu.IfaceMPI && perAtomBytes == 0 && !v.CombineLength,
				}
				n++
				bytesPerRank += float64(bytes)
			}
		}
		if n == 0 {
			continue
		}
		transfers = transfers[:n]
		// A round that fails to drain is a fabric invariant violation, not a
		// modeling outcome; the timing model has no recovery for it.
		if err := fab.RunRound(transfers, iface); err != nil {
			panic("core: " + err.Error())
		}
		var maxDone float64
		for _, tr := range transfers {
			if tr.RecvComplete > maxDone {
				maxDone = tr.RecvComplete
			}
		}
		perRankBytes := int(bytesPerRank / float64(m.Map.Ranks()))
		pack := cost.PackTime(units.Bytes(perRankBytes), v.PackThreading())
		unpack := cost.UnpackTime(units.Bytes(perRankBytes), v.PackThreading())
		if v.Preregistered && !reverse && perAtomBytes == 24 {
			unpack = 0 // direct RDMA write into the position array
		}
		total += pack + maxDone + unpack
	}
	return total
}

// refSetup builds spec's setup on fresh storage, never the pool's.
func refSetup(t *testing.T, spec ModelSpec) *modelSetup {
	t.Helper()
	ms, err := spec.setup(new(modelWork))
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// refModeled is Modeled on fresh storage with every halo operation run
// through refRounds.
func refModeled(t *testing.T, spec ModelSpec) *RunResult {
	t.Helper()
	ms := refSetup(t, spec)
	return spec.modeled(ms, func(perAtomBytes int, reverse, forceMPI bool, extraPerLink int, cost machine.CostModel) float64 {
		return refRounds(ms, perAtomBytes, reverse, forceMPI, extraPerLink, cost)
	})
}

// refHaloTime is HaloTime on fresh storage with both rounds run through
// refRounds.
func refHaloTime(t *testing.T, spec ModelSpec) float64 {
	t.Helper()
	ms := refSetup(t, spec)
	cost := ms.m.Cost
	cost.PackPerByte = 0
	cost.UnpackPerByte = 0
	return refRounds(ms, 24, false, false, 0, cost) + refRounds(ms, 24, true, false, 0, cost)
}

// TestModeledMatchesReference holds Modeled and HaloTime bit for bit to
// their runs through the verbatim reference rounds: Elapsed and every
// Breakdown stage, for every step-by-step variant and both kinds, in both
// placements. The 2-atom load needs three shells, so the staged pattern
// runs its multi-round filter; it runs on the small tile only.
func TestModeledMatchesReference(t *testing.T) {
	type load struct {
		tile    vec.I3
		perRank float64
	}
	loads := []load{
		{vec.I3{X: 2, Y: 3, Z: 2}, 65536.0 / 3072.0},
		{vec.I3{X: 2, Y: 3, Z: 2}, 2},
		{vec.I3{X: 8, Y: 12, Z: 8}, 65536.0 / 3072.0},
	}
	for _, ld := range loads {
		for _, linear := range []bool{false, true} {
			for _, kind := range []Kind{LJ, EAM} {
				for _, v := range sim.StepByStepVariants() {
					spec := ModelSpec{
						Kind: kind, Variant: v, FullShape: vec.I3{X: 8, Y: 12, Z: 8}, TileShape: ld.tile,
						AtomsPerRank: ld.perRank, Steps: 100, LinearMap: linear,
					}
					name := fmt.Sprintf("%dx%dx%d/%g/linear=%v/%s/%s", ld.tile.X, ld.tile.Y, ld.tile.Z, ld.perRank, linear, kind, v.Name)
					if ms := refSetup(t, spec); ld.perRank < 3 && ms.shells < 2 {
						t.Fatalf("%s: the small load stays at one shell", name)
					}
					got, err := Modeled(spec)
					if err != nil {
						t.Fatal(err)
					}
					want := refModeled(t, spec)
					if math.Float64bits(got.Elapsed) != math.Float64bits(want.Elapsed) {
						t.Errorf("%s: Elapsed %v, reference %v", name, got.Elapsed, want.Elapsed)
					}
					for _, st := range trace.Stages() {
						if g, w := got.Breakdown.Get(st), want.Breakdown.Get(st); math.Float64bits(g) != math.Float64bits(w) {
							t.Errorf("%s: stage %s %v, reference %v", name, st, g, w)
						}
					}
					got2, err := HaloTime(spec)
					if err != nil {
						t.Fatal(err)
					}
					if want2 := refHaloTime(t, spec); math.Float64bits(got2) != math.Float64bits(want2) {
						t.Errorf("%s: HaloTime %v, reference %v", name, got2, want2)
					}
				}
			}
		}
	}
}
