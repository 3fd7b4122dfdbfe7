// Package analysis provides in-situ structural analysis of simulation
// snapshots: the radial distribution function g(r), the standard check that
// a simulated liquid or crystal has the right structure (LAMMPS's
// `compute rdf`).
package analysis

import (
	"fmt"
	"math"

	"tofumd/internal/md/sim"
	"tofumd/internal/vec"
)

// RDF accumulates a radial distribution function histogram.
type RDF struct {
	// RMax is the largest distance binned; it must not exceed half the
	// shortest box side (minimum image).
	RMax float64
	// Bins is the histogram resolution.
	Bins int

	counts []float64
	frames int
	n      int
	volume float64
}

// NewRDF validates the parameters against the simulation's box.
func NewRDF(s *sim.Simulation, rmax float64, bins int) (*RDF, error) {
	box := s.Decomp().Box
	half := math.Min(box.X, math.Min(box.Y, box.Z)) / 2
	if rmax <= 0 || rmax > half {
		return nil, fmt.Errorf("analysis: rmax %.3f outside (0, %.3f]", rmax, half)
	}
	if bins < 2 {
		return nil, fmt.Errorf("analysis: need at least 2 bins")
	}
	return &RDF{
		RMax:   rmax,
		Bins:   bins,
		counts: make([]float64, bins),
		volume: box.X * box.Y * box.Z,
	}, nil
}

// Accumulate bins every atom pair of the current snapshot. The global
// gather is O(N^2); intended for the analysis-sized systems of the
// examples and tests.
func (r *RDF) Accumulate(s *sim.Simulation) {
	atoms := s.Gather()
	box := s.Decomp().Box
	r2max := r.RMax * r.RMax
	scale := float64(r.Bins) / r.RMax
	for i, a := range atoms {
		for _, b := range atoms[i+1:] {
			d := vec.V3{
				X: vec.MinImage(a.Pos.X-b.Pos.X, box.X),
				Y: vec.MinImage(a.Pos.Y-b.Pos.Y, box.Y),
				Z: vec.MinImage(a.Pos.Z-b.Pos.Z, box.Z),
			}
			d2 := d.Norm2()
			if d2 >= r2max {
				continue
			}
			bin := int(math.Sqrt(d2) * scale)
			if bin < r.Bins {
				r.counts[bin] += 2 // both orderings of the pair
			}
		}
	}
	r.frames++
	r.n = len(atoms)
}

// Result returns bin-center distances and the normalized g(r).
func (r *RDF) Result() (centers, g []float64) {
	centers = make([]float64, r.Bins)
	g = make([]float64, r.Bins)
	if r.frames == 0 || r.n == 0 {
		return centers, g
	}
	dr := r.RMax / float64(r.Bins)
	density := float64(r.n) / r.volume
	norm := float64(r.n) * float64(r.frames) * density
	for b := 0; b < r.Bins; b++ {
		rLo := float64(b) * dr
		rHi := rLo + dr
		shell := 4.0 / 3.0 * math.Pi * (rHi*rHi*rHi - rLo*rLo*rLo)
		centers[b] = rLo + dr/2
		g[b] = r.counts[b] / (norm * shell)
	}
	return centers, g
}

// FirstPeak returns the distance of the largest g(r) value.
func (r *RDF) FirstPeak() float64 {
	centers, g := r.Result()
	best, at := 0.0, 0.0
	for i, v := range g {
		if v > best {
			best, at = v, centers[i]
		}
	}
	return at
}
