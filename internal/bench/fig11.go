package bench

import (
	"fmt"
	"math"

	"tofumd/internal/core"
	"tofumd/internal/md/sim"
)

// Fig11 reproduces Fig. 11: the pressure of the 65K-atom system under the
// baseline and optimized codes for both potentials. The optimizations do not
// touch force math, so the traces must coincide: the series are the maximum
// relative ref/opt deviation along each trace and the ref runs' final
// pressures. Default: 400 steps sampled every 20; Full: the paper's 50K
// steps.
func Fig11(opt Options) (*Artifact, error) {
	steps := opt.steps(400)
	if opt.Full && opt.Steps == 0 {
		steps = 50000
	}
	every := steps / 20
	if every < 1 {
		every = 1
	}
	pressure := func(wl core.Workload, v sim.Variant) ([]float64, error) {
		res, err := core.Run(core.RunSpec{
			Workload:    wl,
			TileShape:   opt.tileFor(),
			Variant:     v,
			Steps:       steps,
			ThermoEvery: every,
		})
		if err != nil {
			return nil, err
		}
		var p []float64
		for _, t := range res.Thermo {
			p = append(p, t.Pressure)
		}
		return p, nil
	}
	a := NewArtifact("fig11", opt)
	var final [2]float64
	for i, wl := range []core.Workload{core.LJSmall(), core.EAMSmall()} {
		ref, err := pressure(wl, sim.Ref())
		if err != nil {
			return nil, err
		}
		optP, err := pressure(wl, sim.Opt())
		if err != nil {
			return nil, err
		}
		d, err := maxRelDiff(ref, optP)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.Name, err)
		}
		a.Add(key("max_rel_diff", wl.Kind.String()), "frac", d, DirLower)
		final[i] = ref[len(ref)-1]
	}
	a.Add("final_pressure/lj_ref", "", final[0], DirEqual)
	a.Add("final_pressure/eam_ref", "bar", final[1], DirEqual)
	return a, nil
}

// maxRelDiff is the largest relative deviation of trace b from trace a. The
// traces must sample the same steps, at least two of them: a shorter or
// empty trace would compare nothing and read 0.
func maxRelDiff(a, b []float64) (float64, error) {
	if len(a) != len(b) || len(a) < 2 {
		return 0, fmt.Errorf("pressure traces hold %d and %d samples, want the same count of at least 2", len(a), len(b))
	}
	var worst float64
	for i := range a {
		scale := math.Abs(a[i])
		if scale < 1e-9 {
			scale = 1e-9
		}
		if d := math.Abs(a[i]-b[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst, nil
}
