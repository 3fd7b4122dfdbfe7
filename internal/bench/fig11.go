package bench

import (
	"fmt"
	"math"

	"tofumd/internal/core"
	"tofumd/internal/md/sim"
)

// Fig11Series is one pressure trace.
type Fig11Series struct {
	Steps    []int
	Pressure []float64
}

// Fig11Result reproduces Fig. 11: the pressure of the 65K-atom system under
// the baseline and optimized codes for both potentials. The optimizations
// do not touch force math, so the traces must coincide.
type Fig11Result struct {
	LJRef, LJOpt, EAMRef, EAMOpt Fig11Series
	// MaxRelDiffLJ/EAM is the maximum relative pressure deviation between
	// ref and opt along the trace.
	MaxRelDiffLJ, MaxRelDiffEAM float64
}

// Fig11 runs the accuracy traces. Default: 400 steps sampled every 20;
// Full: the paper's 50K steps.
func Fig11(opt Options) (Fig11Result, error) {
	steps := opt.steps(400)
	if opt.Full && opt.Steps == 0 {
		steps = 50000
	}
	every := steps / 20
	if every < 1 {
		every = 1
	}
	run := func(kind core.Kind, v sim.Variant) (Fig11Series, error) {
		wl := core.LJSmall()
		if kind == core.EAM {
			wl = core.EAMSmall()
		}
		res, err := core.Run(core.RunSpec{
			Workload:    wl,
			TileShape:   opt.tileFor(),
			Variant:     v,
			Steps:       steps,
			ThermoEvery: every,
		})
		if err != nil {
			return Fig11Series{}, err
		}
		var s Fig11Series
		for _, t := range res.Thermo {
			s.Steps = append(s.Steps, t.Step)
			s.Pressure = append(s.Pressure, t.Pressure)
		}
		return s, nil
	}
	var out Fig11Result
	var err error
	if out.LJRef, err = run(core.LJ, sim.Ref()); err != nil {
		return out, err
	}
	if out.LJOpt, err = run(core.LJ, sim.Opt()); err != nil {
		return out, err
	}
	if out.EAMRef, err = run(core.EAM, sim.Ref()); err != nil {
		return out, err
	}
	if out.EAMOpt, err = run(core.EAM, sim.Opt()); err != nil {
		return out, err
	}
	out.MaxRelDiffLJ = maxRelDiff(out.LJRef.Pressure, out.LJOpt.Pressure)
	out.MaxRelDiffEAM = maxRelDiff(out.EAMRef.Pressure, out.EAMOpt.Pressure)
	return out, nil
}

func maxRelDiff(a, b []float64) float64 {
	var worst float64
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		scale := math.Abs(a[i])
		if scale < 1e-9 {
			scale = 1e-9
		}
		if d := math.Abs(a[i]-b[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// Format renders the Fig. 11 reproduction.
func (f Fig11Result) Format() string {
	var rows [][]string
	n := len(f.LJRef.Steps)
	for i := 0; i < n; i++ {
		row := []string{fmt.Sprintf("%d", f.LJRef.Steps[i]),
			fmt.Sprintf("%.5f", f.LJRef.Pressure[i]),
			fmt.Sprintf("%.5f", f.LJOpt.Pressure[i])}
		if i < len(f.EAMRef.Pressure) && i < len(f.EAMOpt.Pressure) {
			row = append(row,
				fmt.Sprintf("%.1f", f.EAMRef.Pressure[i]),
				fmt.Sprintf("%.1f", f.EAMOpt.Pressure[i]))
		} else {
			row = append(row, "-", "-")
		}
		rows = append(rows, row)
	}
	s := "Fig. 11: pressure of the 65K-atom system, baseline vs optimized\n"
	return s + table([]string{"step", "lj_ref", "lj_opt", "eam_ref(bar)", "eam_opt(bar)"}, rows)
}
