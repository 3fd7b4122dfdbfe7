package core

import (
	"fmt"
	"strings"
	"testing"

	"tofumd/internal/md/sim"
	"tofumd/internal/trace"
	"tofumd/internal/vec"
)

// TestModeledMatchesFunctional cross-validates the modeled (timing-only)
// runner against the functional engine on the same per-rank load: modeled
// mode is what produces the largest-scale figures, so its stage structure
// must track the functional ground truth. Both run one halo.Plan, so total
// time and comm share must agree within 0.8-1.25. Measured modeled/
// functional totals on this tile (40 steps): ref 0.99, utofu-3stage 0.87,
// 4tni-p2p 1.05, 6tni-p2p 1.07, opt 1.05 (the hand-kept mirror read 1.02,
// 0.87, 1.08, 1.07, 1.07). Per-stage tolerances are ROADMAP 3b.
func TestModeledMatchesFunctional(t *testing.T) {
	tile := vec.I3{X: 4, Y: 6, Z: 4}
	full := vec.I3{X: 8, Y: 12, Z: 8}
	steps := 40
	for _, v := range []sim.Variant{sim.Ref(), sim.UTofu3Stage(), sim.P2P4TNI(), sim.P2P6TNI(), sim.Opt()} {
		t.Run(v.Name, func(t *testing.T) {
			fun, err := Run(RunSpec{
				Workload:  LJSmall(),
				TileShape: tile,
				Variant:   v,
				Steps:     steps,
			})
			if err != nil {
				t.Fatal(err)
			}
			mod, err := Modeled(ModelSpec{
				Kind:         LJ,
				Variant:      v,
				FullShape:    full,
				TileShape:    tile,
				AtomsPerRank: fun.AtomsPerRank,
				Steps:        steps,
			})
			if err != nil {
				t.Fatal(err)
			}
			ratio := mod.Elapsed / fun.Elapsed
			t.Logf("modeled/functional total = %.2f", ratio)
			if ratio < 0.8 || ratio > 1.25 {
				t.Errorf("modeled/functional total = %.2f (%.4fs vs %.4fs)",
					ratio, mod.Elapsed, fun.Elapsed)
			}
			fShare := fun.Breakdown.Get(trace.Comm) / fun.Breakdown.Total()
			mShare := mod.Breakdown.Get(trace.Comm) / mod.Breakdown.Total()
			t.Logf("comm share: modeled %.1f%% vs functional %.1f%%", 100*mShare, 100*fShare)
			if mShare < fShare*0.8 || mShare > fShare*1.25 {
				t.Errorf("comm share: modeled %.0f%% vs functional %.0f%%",
					100*mShare, 100*fShare)
			}
		})
	}
	// And the modeled speedup must track the functional speedup.
	speedup := func(run func(v sim.Variant) float64) float64 {
		return run(sim.Ref()) / run(sim.Opt())
	}
	fs := speedup(func(v sim.Variant) float64 {
		r, err := Run(RunSpec{Workload: LJSmall(), TileShape: tile, Variant: v, Steps: steps})
		if err != nil {
			t.Fatal(err)
		}
		return r.Elapsed
	})
	msu := speedup(func(v sim.Variant) float64 {
		r, err := Modeled(ModelSpec{Kind: LJ, Variant: v, FullShape: full, TileShape: tile,
			AtomsPerRank: 21.3, Steps: steps})
		if err != nil {
			t.Fatal(err)
		}
		return r.Elapsed
	})
	if msu < fs*0.6 || msu > fs*1.6 {
		t.Errorf("modeled speedup %.2fx vs functional %.2fx", msu, fs)
	}
}

// TestModeledIssuesFunctionalPlan pins the one-plan property: the modeled
// halo exchange issues exactly the messages the functional engine issues
// for one forward+reverse exchange of the same variant — the same (Src,
// Dst, TNI, Thread, DstThread) of every message, in the same order —
// because both back ends run one halo.Plan and its thread/TNI assignment.
// The 2x3x2 tile's sub-boxes are thinner than the LJ ghost cutoff, so this
// also covers the two-shell plan (62 p2p links per rank, 6 staged rounds).
func TestModeledIssuesFunctionalPlan(t *testing.T) {
	type key struct{ src, dst, tni, thread, dstThread int }
	keys := func(evs []trace.MessageEvent) []key {
		out := make([]key, len(evs))
		for i, e := range evs {
			out[i] = key{e.Src, e.Dst, e.TNI, e.Thread, e.DstThread}
		}
		return out
	}
	tile := vec.I3{X: 2, Y: 3, Z: 2}
	for _, v := range sim.StepByStepVariants() {
		t.Run(v.Name, func(t *testing.T) {
			// Step 1 of the LJ deck does not rebuild (neigh_modify every 20):
			// its only messages are one forward and one reverse exchange.
			frec := trace.NewRecorder()
			fun, err := Run(RunSpec{Workload: LJSmall(), TileShape: tile, Variant: v, Steps: 1, Recorder: frec})
			if err != nil {
				t.Fatal(err)
			}
			mrec := trace.NewRecorder()
			if _, err := HaloTime(ModelSpec{
				Kind: LJ, Variant: v, FullShape: LJSmall().FullShape, TileShape: tile,
				AtomsPerRank: fun.AtomsPerRank, Rec: mrec,
			}); err != nil {
				t.Fatal(err)
			}
			f, m := keys(frec.Messages()), keys(mrec.Messages())
			if len(f) != len(m) {
				t.Fatalf("functional issued %d messages, modeled %d", len(f), len(m))
			}
			for i := range f {
				if f[i] != m[i] {
					t.Fatalf("message %d: functional %+v, modeled %+v", i, f[i], m[i])
				}
			}
		})
	}
}

// TestModeledStagedRoundsFollowPlan: a modeled two-shell staged exchange
// runs one fabric round per (dimension, forwarding iteration), 3 × shells
// per operation — the count the functional engine's HaloPlan reports for
// the same geometry — not one merged round per dimension. Each modeled
// round issues rank by rank, so a round starts wherever the sending rank
// drops.
func TestModeledStagedRoundsFollowPlan(t *testing.T) {
	tile := vec.I3{X: 2, Y: 2, Z: 2}
	v := sim.UTofu3Stage()
	// 256 LJ atoms on 32 ranks: ~8 atoms per rank, sub-boxes thinner than
	// the 2.8 ghost cutoff.
	text, err := Plan(RunSpec{Workload: Workload{Name: "lj-8", Kind: LJ, Atoms: 256, FullShape: tile}, TileShape: tile, Variant: v})
	if err != nil {
		t.Fatal(err)
	}
	var links, perRank, rounds int
	if _, err := fmt.Sscanf(strings.Split(text, "\n")[2], "%d directed links, %d per rank, %d round(s) per exchange",
		&links, &perRank, &rounds); err != nil {
		t.Fatalf("parsing %q: %v", text, err)
	}
	if rounds != 6 {
		t.Fatalf("functional plan has %d rounds, want 3 x 2 shells:\n%s", rounds, text)
	}
	rec := trace.NewRecorder()
	if _, err := HaloTime(ModelSpec{Kind: LJ, Variant: v, FullShape: tile, TileShape: tile, AtomsPerRank: 8, Rec: rec}); err != nil {
		t.Fatal(err)
	}
	msgs := rec.Messages()
	starts := 1
	for i := 1; i < len(msgs); i++ {
		if msgs[i].Src < msgs[i-1].Src {
			starts++
		}
	}
	// HaloTime runs a forward and a reverse operation.
	if starts != 2*rounds {
		t.Errorf("modeled exchange ran %d fabric rounds, want %d per operation x 2", starts, rounds)
	}
}

// TestTopoMapMattersAtScale: on the large torus, scrambling rank placement
// inflates neighbor hop distances and with them the halo time — the effect
// the paper's "topo map" (section 3.5.3) exists to avoid. At small tiles
// the penalty is tiny; at a 16x24x16 tile it must be clearly visible.
func TestTopoMapMattersAtScale(t *testing.T) {
	shape := vec.I3{X: 16, Y: 24, Z: 16}
	per := 4194304.0 / float64(shape.Prod()*4)
	run := func(linear bool) float64 {
		r, err := Modeled(ModelSpec{
			Kind:         LJ,
			Variant:      sim.Opt(),
			FullShape:    shape,
			TileShape:    shape, // simulate the whole 6144-node torus
			AtomsPerRank: per,
			Steps:        10,
			LinearMap:    linear,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Breakdown.Get(trace.Comm)
	}
	topoComm := run(false)
	linComm := run(true)
	if linComm <= topoComm {
		t.Errorf("linear placement comm %.3gms not above topo placement %.3gms",
			1e3*linComm, 1e3*topoComm)
	}
	if linComm < 1.2*topoComm {
		t.Logf("note: linear/topo comm ratio %.2f (hop inflation visible but modest)", linComm/topoComm)
	} else {
		t.Logf("linear/topo comm ratio %.2f", linComm/topoComm)
	}
}
