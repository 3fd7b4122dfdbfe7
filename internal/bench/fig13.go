package bench

import (
	"fmt"

	"tofumd/internal/core"
	"tofumd/internal/md/sim"
	"tofumd/internal/topo"
	"tofumd/internal/trace"
)

// Fig13Row is one strong-scaling point for one potential.
type Fig13Row struct {
	Nodes int
	Kind  string
	// RefPerf/OptPerf are tau/day (lj) or us/day (metal).
	RefPerf, OptPerf float64
	// Efficiency is parallel efficiency relative to the first point.
	RefEff, OptEff float64
	// Stage times per run (seconds) for Fig. 13b.
	RefPair, OptPair, RefComm, OptComm float64
	Speedup                            float64
}

// Fig13Result reproduces Fig. 13 (strong scaling 768 to 36,864 nodes) and
// Table 3 (the stage breakdown at the last point).
type Fig13Result struct {
	Rows []Fig13Row
	// Table3 holds the last point's breakdowns keyed "Origin-L-J",
	// "Opt-L-J", "Origin-EAM", "Opt-EAM".
	Table3 map[string]*trace.Breakdown
	// Headline speedups at the last point.
	SpeedupLJ, SpeedupEAM float64
	// PairDropLJ/EAM is the pair-stage reduction at the last point.
	PairDropLJ, PairDropEAM float64
}

// Fig13 runs the strong-scaling sweep in modeled mode (the homogeneous
// benchmark makes a representative tile timing-equivalent; collectives are
// charged at the full rank count).
func Fig13(opt Options) (Fig13Result, error) {
	steps := opt.steps(99)
	shapes := topo.PaperStrongScalingShapes()
	tileCap := 256
	if opt.Full {
		tileCap = 4096
	}
	out := Fig13Result{Table3: map[string]*trace.Breakdown{}}
	for _, kind := range []core.Kind{core.LJ, core.EAM} {
		atoms := core.StrongScalingAtoms(kind)
		var firstRefPerf, firstOptPerf float64
		var firstNodes int
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
				return out, err
			}
			optR, err := run(sim.Opt())
			if err != nil {
				return out, err
			}
			row := Fig13Row{
				Nodes:   shape.Prod(),
				Kind:    kind.String(),
				RefPerf: ref.PerfPerDay,
				OptPerf: optR.PerfPerDay,
				RefPair: ref.Breakdown.Get(trace.Pair),
				OptPair: optR.Breakdown.Get(trace.Pair),
				RefComm: ref.Breakdown.Get(trace.Comm),
				OptComm: optR.Breakdown.Get(trace.Comm),
				Speedup: ref.Elapsed / optR.Elapsed,
			}
			if i == 0 {
				firstRefPerf, firstOptPerf, firstNodes = ref.PerfPerDay, optR.PerfPerDay, row.Nodes
			}
			scale := float64(row.Nodes) / float64(firstNodes)
			row.RefEff = row.RefPerf / (firstRefPerf * scale)
			row.OptEff = row.OptPerf / (firstOptPerf * scale)
			out.Rows = append(out.Rows, row)
			if i == len(shapes)-1 {
				if kind == core.LJ {
					out.SpeedupLJ = row.Speedup
					out.PairDropLJ = 1 - row.OptPair/row.RefPair
					out.Table3["Origin-L-J"] = ref.Breakdown
					out.Table3["Opt-L-J"] = optR.Breakdown
				} else {
					out.SpeedupEAM = row.Speedup
					out.PairDropEAM = 1 - row.OptPair/row.RefPair
					out.Table3["Origin-EAM"] = ref.Breakdown
					out.Table3["Opt-EAM"] = optR.Breakdown
				}
			}
		}
	}
	return out, nil
}

// Format renders Fig. 13a/13b.
func (f Fig13Result) Format() string {
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Nodes), r.Kind,
			fmt.Sprintf("%.4g", r.RefPerf), fmt.Sprintf("%.4g", r.OptPerf),
			pct(r.RefEff), pct(r.OptEff),
			ms(r.RefPair), ms(r.OptPair), ms(r.RefComm), ms(r.OptComm),
			fmt.Sprintf("%.2fx", r.Speedup),
		})
	}
	s := "Fig. 13: strong scaling 768 -> 36864 nodes (perf in tau/day or us/day; stage times ms/run)\n"
	return s + table([]string{"nodes", "pot", "ref perf", "opt perf", "ref eff", "opt eff",
		"ref pair", "opt pair", "ref comm", "opt comm", "speedup"}, rows)
}

// FormatTable3 renders the Table 3 reproduction: stage times and their
// share of the total at the last strong-scaling point.
func (f Fig13Result) FormatTable3() string {
	order := []string{"Origin-L-J", "Opt-L-J", "Origin-EAM", "Opt-EAM"}
	var rows [][]string
	for _, name := range order {
		bd := f.Table3[name]
		if bd == nil {
			continue
		}
		total := bd.Total()
		timeRow := []string{name}
		pctRow := []string{""}
		for _, st := range trace.Stages() {
			timeRow = append(timeRow, ms(bd.Get(st)))
			pctRow = append(pctRow, pct(bd.Get(st)/total))
		}
		rows = append(rows, timeRow, pctRow)
	}
	s := "Table 3: stage breakdown at 36864 nodes (ms per run / % of total)\n"
	s += table([]string{"potential", "Pair", "Neigh", "Comm", "Modify", "Other"}, rows)
	return s
}
