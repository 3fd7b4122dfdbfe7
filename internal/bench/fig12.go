package bench

import (
	"fmt"

	"tofumd/internal/core"
	"tofumd/internal/md/sim"
	"tofumd/internal/trace"
)

// Fig12Row is one variant of one system in the step-by-step comparison.
type Fig12Row struct {
	System  string
	Variant string
	// Stage times in seconds over the run.
	Pair, Neigh, Comm, Modify, Other, Total float64
	// Speedup is total(ref)/total(variant) within the system.
	Speedup float64
}

// Fig12Result reproduces Fig. 12: step-by-step performance of all variants
// on the 768-node configuration for the 65K and 1.7M systems, LJ and EAM.
type Fig12Result struct {
	Rows []Fig12Row
	// SpeedupSmallLJ etc. are the headline opt-vs-ref speedups.
	SpeedupSmallLJ, SpeedupSmallEAM, SpeedupBigLJ, SpeedupBigEAM float64
	// CommReductionSmallLJ is opt's comm-time reduction on the small LJ
	// system.
	CommReductionSmallLJ float64
}

// Fig12 runs the step-by-step experiment.
func Fig12(opt Options) (Fig12Result, error) {
	steps := opt.steps(20)
	if opt.Full && opt.Steps == 0 {
		steps = 99
	}
	systems := []struct {
		name string
		wl   core.Workload
	}{
		{"lj-65k", core.LJSmall()},
		{"lj-1.7m", core.LJBig()},
		{"eam-65k", core.EAMSmall()},
		{"eam-1.7m", core.EAMBig()},
	}
	var out Fig12Result
	for _, sys := range systems {
		var refTotal, refComm float64
		for _, v := range sim.StepByStepVariants() {
			res, err := core.Run(core.RunSpec{
				Workload:  sys.wl,
				TileShape: opt.tileFor(),
				Variant:   v,
				Steps:     steps,
				Recorder:  opt.Rec,
				Metrics:   opt.Met,
			})
			if err != nil {
				return out, fmt.Errorf("%s/%s: %w", sys.name, v.Name, err)
			}
			bd := res.Breakdown
			row := Fig12Row{
				System:  sys.name,
				Variant: v.Name,
				Pair:    bd.Get(trace.Pair),
				Neigh:   bd.Get(trace.Neigh),
				Comm:    bd.Get(trace.Comm),
				Modify:  bd.Get(trace.Modify),
				Other:   bd.Get(trace.Other),
				Total:   bd.Total(),
			}
			if v.Name == "ref" {
				refTotal, refComm = row.Total, row.Comm
			}
			if refTotal > 0 {
				row.Speedup = refTotal / row.Total
			}
			out.Rows = append(out.Rows, row)
			if v.Name == "opt" {
				switch sys.name {
				case "lj-65k":
					out.SpeedupSmallLJ = row.Speedup
					out.CommReductionSmallLJ = 1 - row.Comm/refComm
				case "eam-65k":
					out.SpeedupSmallEAM = row.Speedup
				case "lj-1.7m":
					out.SpeedupBigLJ = row.Speedup
				case "eam-1.7m":
					out.SpeedupBigEAM = row.Speedup
				}
			}
		}
	}
	return out, nil
}

// Format renders the Fig. 12 reproduction.
func (f Fig12Result) Format() string {
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			r.System, r.Variant,
			ms(r.Pair), ms(r.Neigh), ms(r.Comm), ms(r.Modify), ms(r.Other), ms(r.Total),
			fmt.Sprintf("%.2fx", r.Speedup),
		})
	}
	s := "Fig. 12: step-by-step performance (stage times in ms over the run)\n"
	return s + table([]string{"system", "variant", "Pair", "Neigh", "Comm", "Modify", "Other", "Total", "speedup"}, rows)
}
