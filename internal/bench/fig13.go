package bench

import (
	"fmt"
	"strings"

	"tofumd/internal/core"
	"tofumd/internal/md/sim"
	"tofumd/internal/topo"
	"tofumd/internal/trace"
)

// Fig13 reproduces Fig. 13, strong scaling from 768 to 36,864 nodes, and
// Table 3, the stage breakdown at its last point. It runs in modeled mode
// (the homogeneous benchmark makes a representative tile timing-equivalent;
// collectives are charged at the full rank count). The fig13 series are each
// point's ref and opt perf (tau/day for LJ, us/day for EAM) and speedup, then
// the last point's speedups and pair-stage reductions; the table3 series are
// each code's total time at the last point, then each stage's share of it.
func Fig13(opt Options) (fig13, table3 *Artifact, err error) {
	steps := opt.steps(99)
	shapes := topo.PaperStrongScalingShapes()
	tileCap := 256
	if opt.Full {
		tileCap = 4096
	}
	fig13 = NewArtifact("fig13", opt)
	var speedup, pairDrop [2]float64
	last := map[string]*trace.Breakdown{}
	for k, sys := range []struct {
		kind core.Kind
		code string // Table 3's name for the potential
	}{{core.LJ, "L-J"}, {core.EAM, "EAM"}} {
		kind := sys.kind
		atoms := core.StrongScalingAtoms(kind)
		for i, shape := range shapes {
			ranks := shape.Prod() * 4
			per := float64(atoms) / float64(ranks)
			run := func(v sim.Variant) (*core.RunResult, error) {
				return core.Modeled(core.ModelSpec{
					Kind:         kind,
					Variant:      v,
					FullShape:    shape,
					TileShape:    core.DefaultTile(shape, tileCap),
					AtomsPerRank: per,
					Steps:        steps,
				})
			}
			ref, err := run(sim.Ref())
			if err != nil {
				return nil, nil, err
			}
			optR, err := run(sim.Opt())
			if err != nil {
				return nil, nil, err
			}
			nodes := fmt.Sprintf("n%d", shape.Prod())
			fig13.Add(key(kind.String(), nodes, "ref_perf"), "perf/day", ref.PerfPerDay, DirHigher)
			fig13.Add(key(kind.String(), nodes, "opt_perf"), "perf/day", optR.PerfPerDay, DirHigher)
			fig13.Add(key(kind.String(), nodes, "speedup"), "x", ref.Elapsed/optR.Elapsed, DirHigher)
			if i == len(shapes)-1 {
				speedup[k] = ref.Elapsed / optR.Elapsed
				pairDrop[k] = 1 - optR.Breakdown.Get(trace.Pair)/ref.Breakdown.Get(trace.Pair)
				last["Origin-"+sys.code], last["Opt-"+sys.code] = ref.Breakdown, optR.Breakdown
			}
		}
	}
	fig13.Add("speedup/lj", "x", speedup[0], DirHigher)
	fig13.Add("speedup/eam", "x", speedup[1], DirHigher)
	fig13.Add("pair_drop/lj", "frac", pairDrop[0], DirHigher)
	fig13.Add("pair_drop/eam", "frac", pairDrop[1], DirHigher)

	table3 = NewArtifact("table3", opt)
	codes := []string{"Opt-EAM", "Opt-L-J", "Origin-EAM", "Origin-L-J"}
	for _, name := range codes {
		table3.Add(key(name, "total"), "s", last[name].Total(), DirLower)
	}
	for _, name := range codes {
		bd := last[name]
		for _, st := range trace.Stages() {
			table3.Add(key(name, "share", strings.ToLower(st.String())), "frac", bd.Get(st)/bd.Total(), DirEqual)
		}
	}
	return fig13, table3, nil
}
