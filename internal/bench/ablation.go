package bench

import (
	"fmt"

	"tofumd/internal/core"
	"tofumd/internal/halo"
	"tofumd/internal/md/sim"
	"tofumd/internal/trace"
)

// AblationRow measures the optimized code with one design choice removed.
type AblationRow struct {
	Name string
	// Comm and Total are stage/total virtual times of the run.
	Comm, Total float64
	// CommPenalty is the comm-time inflation vs full opt (1.0 = none).
	CommPenalty float64
}

// AblationResult quantifies the individual optimizations DESIGN.md calls
// out: the fine-grained thread pool (section 3.3), pre-registered buffers
// (3.4), message combine (3.5.1), border bins (3.5.2) and the topology
// mapping (3.5.3). The paper reports them qualitatively; this harness
// isolates each on the small-system workload where they matter most.
type AblationResult struct {
	Rows []AblationRow
}

// Ablations runs the sweep on a medium LJ load (~195 atoms/rank): large
// enough that the sub-box exceeds twice the ghost cutoff, so the
// border-bin fast path engages (it cannot in the 65K geometry, where the
// sub-box is barely one cutoff wide), yet small enough that communication
// still dominates the baseline.
func Ablations(opt Options) (AblationResult, error) {
	steps := opt.steps(45)
	workload := core.LJSmall()
	workload.Name = "lj-600k"
	workload.Atoms = 600_000
	tile := opt.tileFor()

	type variantMod struct {
		name   string
		modify func(v *sim.Variant, spec *core.RunSpec)
	}
	mods := []variantMod{
		{"opt (all on)", func(*sim.Variant, *core.RunSpec) {}},
		{"- thread pool", func(v *sim.Variant, _ *core.RunSpec) {
			v.CommThreads = 1
			v.TNIPolicy = halo.TNIPerRankSlot
		}},
		{"- preregistered", func(v *sim.Variant, _ *core.RunSpec) { v.Preregistered = false }},
		{"- msg combine", func(v *sim.Variant, _ *core.RunSpec) { v.CombineLength = false }},
		{"- border bins", func(v *sim.Variant, _ *core.RunSpec) { v.BorderBins = false }},
		{"- topo map", func(_ *sim.Variant, spec *core.RunSpec) { spec.LinearMap = true }},
		{"ref (all off)", func(v *sim.Variant, _ *core.RunSpec) { *v = sim.Ref() }},
	}

	var out AblationResult
	var optComm float64
	for _, m := range mods {
		v := sim.Opt()
		spec := core.RunSpec{
			Workload:  workload,
			TileShape: tile,
			Steps:     steps,
		}
		m.modify(&v, &spec)
		spec.Variant = v
		res, err := core.Run(spec)
		if err != nil {
			return out, fmt.Errorf("%s: %w", m.name, err)
		}
		row := AblationRow{
			Name:  m.name,
			Comm:  res.Breakdown.Get(trace.Comm),
			Total: res.Breakdown.Total(),
		}
		if m.name == "opt (all on)" {
			optComm = row.Comm
		}
		if optComm > 0 {
			row.CommPenalty = row.Comm / optComm
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Format renders the ablation table.
func (a AblationResult) Format() string {
	var rows [][]string
	for _, r := range a.Rows {
		rows = append(rows, []string{
			r.Name, ms(r.Comm), ms(r.Total), fmt.Sprintf("%.2fx", r.CommPenalty),
		})
	}
	s := "Ablations: the optimized code minus one design choice (600K-atom load)\n"
	s += table([]string{"configuration", "Comm(ms)", "Total(ms)", "comm vs opt"}, rows)
	return s
}
