package bench

import (
	"fmt"

	"tofumd/internal/core"
	"tofumd/internal/halo"
	"tofumd/internal/md/sim"
	"tofumd/internal/topo"
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

// Ablations runs the sweep modeled on the whole 768-node torus with 600K LJ
// atoms (~195 per rank): enough that the sub-box exceeds twice the ghost
// cutoff, so the border-bin fast path engages (it cannot in the 65K
// geometry, where the sub-box is barely one cutoff wide), yet few enough
// that communication still dominates the baseline.
func Ablations(opt Options) (AblationResult, error) {
	full := core.LJSmall().FullShape
	mods := []struct {
		name   string
		modify func(spec *core.ModelSpec)
	}{
		{"opt (all on)", func(*core.ModelSpec) {}},
		{"- thread pool", func(s *core.ModelSpec) {
			s.Variant.CommThreads = 1
			s.Variant.TNIPolicy = halo.TNIPerRankSlot
		}},
		{"- preregistered", func(s *core.ModelSpec) { s.Variant.Preregistered = false }},
		{"- msg combine", func(s *core.ModelSpec) { s.Variant.CombineLength = false }},
		{"- border bins", func(s *core.ModelSpec) { s.Variant.BorderBins = false }},
		{"- topo map", func(s *core.ModelSpec) { s.LinearMap = true }},
		{"ref (all off)", func(s *core.ModelSpec) { s.Variant = sim.Ref() }},
	}

	var out AblationResult
	var optComm float64
	for _, m := range mods {
		spec := core.ModelSpec{
			Kind:         core.LJ,
			Variant:      sim.Opt(),
			FullShape:    full,
			TileShape:    full,
			AtomsPerRank: 600_000 / float64(full.Prod()*topo.DefaultBlock.Prod()),
			Steps:        opt.steps(45),
		}
		m.modify(&spec)
		res, err := core.Modeled(spec)
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
