package bench

import (
	"fmt"

	"tofumd/internal/core"
	"tofumd/internal/halo"
	"tofumd/internal/md/sim"
	"tofumd/internal/topo"
	"tofumd/internal/trace"
)

// Ablations quantifies the individual optimizations DESIGN.md calls out:
// the fine-grained thread pool (section 3.3), pre-registered buffers (3.4),
// message combine (3.5.1), border bins (3.5.2) and the topology mapping
// (3.5.3). The paper reports them qualitatively; this harness removes each
// from opt in isolation. The series are each configuration's comm and total
// times (lower is better) and its comm time over full opt's, which is
// information only.
//
// The sweep is modeled on the whole 768-node torus with 600K LJ atoms (~195
// per rank): enough that the sub-box exceeds twice the ghost cutoff, so the
// border-bin fast path engages (it cannot in the 65K geometry, where the
// sub-box is barely one cutoff wide), yet few enough that communication
// still dominates the baseline.
func Ablations(opt Options) (*Artifact, error) {
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

	a := NewArtifact("ablations", opt)
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
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		comm := res.Breakdown.Get(trace.Comm)
		if m.name == "opt (all on)" {
			optComm = comm
		}
		var penalty float64
		if optComm > 0 {
			penalty = comm / optComm
		}
		a.Add(key(m.name, "comm"), "s", comm, DirLower)
		a.Add(key(m.name, "total"), "s", res.Breakdown.Total(), DirLower)
		a.Add(key(m.name, "comm_penalty"), "x", penalty, "")
	}
	return a, nil
}
