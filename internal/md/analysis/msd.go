package analysis

import (
	"fmt"

	"tofumd/internal/md/sim"
	"tofumd/internal/vec"
)

// MSD tracks the mean-squared displacement of all atoms from their
// positions at construction time (LAMMPS `compute msd`). Positions are
// unwrapped by accumulating minimum-image displacements between consecutive
// samples, so Sample must be called at least once per interval in which no
// atom travels more than half a box length — a few tens of MD steps for any
// physical temperature.
type MSD struct {
	box vec.V3
	// prev is the last sample's gather; disp[i] is the accumulated
	// unwrapped displacement of the atom at prev[i].
	prev []sim.InitAtom
	disp []vec.V3
}

// NewMSD records the reference positions.
func NewMSD(s *sim.Simulation) *MSD {
	prev := s.Gather()
	return &MSD{box: s.Decomp().Box, prev: prev, disp: make([]vec.V3, len(prev))}
}

// Sample accumulates displacements since the previous sample and returns
// the current mean-squared displacement.
func (m *MSD) Sample(s *sim.Simulation) (float64, error) {
	cur := s.Gather()
	if len(cur) == 0 {
		return 0, fmt.Errorf("analysis: no atoms")
	}
	if len(cur) != len(m.prev) {
		return 0, fmt.Errorf("analysis: %d atoms sampled, origin had %d", len(cur), len(m.prev))
	}
	var sum float64
	for i, a := range cur {
		prev := m.prev[i].Pos
		if a.ID != m.prev[i].ID {
			return 0, fmt.Errorf("analysis: atom %d appeared after MSD origin", a.ID)
		}
		m.disp[i] = m.disp[i].Add(vec.V3{
			X: vec.MinImage(a.Pos.X-prev.X, m.box.X),
			Y: vec.MinImage(a.Pos.Y-prev.Y, m.box.Y),
			Z: vec.MinImage(a.Pos.Z-prev.Z, m.box.Z),
		})
		sum += m.disp[i].Norm2()
	}
	m.prev = cur
	return sum / float64(len(cur)), nil
}
