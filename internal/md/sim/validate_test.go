package sim

import (
	"testing"

	"tofumd/internal/halo"
	"tofumd/internal/md/potential"
	"tofumd/internal/vec"
)

func TestNewRejectsBadConfigs(t *testing.T) {
	m := testMachine(t)
	base := ljConfig()

	cases := []struct {
		name   string
		mutate func(*Config, *Variant)
	}{
		{"nil potential", func(c *Config, _ *Variant) { c.Potential = nil }},
		{"nil lattice", func(c *Config, _ *Variant) { c.Lat = nil }},
		{"zero neigh interval", func(c *Config, _ *Variant) { c.NeighEvery = 0 }},
		{"many-body newton off", func(c *Config, _ *Variant) {
			eam, err := potential.NewEAMCu(4.95)
			if err != nil {
				t.Fatal(err)
			}
			c.Potential = eam
			c.NewtonOn = false
		}},
		{"cutoff too large", func(c *Config, _ *Variant) {
			// Ghost cutoff beyond shells*minSide: shrink the box hard.
			c.Cells = vec.I3{X: 2, Y: 2, Z: 2}
		}},
		{"mpi thread-bound", func(_ *Config, v *Variant) {
			v.Transport = halo.TransportMPI
			v.TNIPolicy = halo.TNIThreadBound
		}},
		{"prereg over mpi", func(_ *Config, v *Variant) {
			v.Transport = halo.TransportMPI
			v.TNIPolicy = halo.TNIPerRankSlot
			v.CommThreads = 1
			v.Preregistered = true
		}},
		{"threads without binding", func(_ *Config, v *Variant) {
			v.TNIPolicy = halo.TNIPerRankSlot
			v.CommThreads = 6
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := base
			v := Opt()
			c.mutate(&cfg, &v)
			s, err := New(m, v, cfg)
			if err == nil {
				s.Close()
				t.Errorf("%s accepted", c.name)
			}
		})
	}
}

func TestVariantNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, v := range StepByStepVariants() {
		if seen[v.Name] {
			t.Errorf("duplicate variant name %q", v.Name)
		}
		seen[v.Name] = true
		if err := v.Validate(); err != nil {
			t.Errorf("built-in variant %s invalid: %v", v.Name, err)
		}
	}
	if len(seen) != 6 {
		t.Errorf("%d variants, want 6 (the artifact's five projects + MPI p2p)", len(seen))
	}
}
