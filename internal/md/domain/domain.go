// Package domain holds the MD-specific ghost-send geometry on top of the
// generic box/grid decomposition of internal/halo (Fig. 1): which neighbor
// sub-boxes an atom must be sent to, including the 3x3x3 border-bin
// accelerator of section 3.5.2 and the multi-shell neighborhoods (62/124
// neighbors) of the extended experiment (Fig. 15).
package domain

import "tofumd/internal/vec"

// SendQualifier decides which neighbor sub-boxes an atom must be sent to as
// a ghost: the atom qualifies for direction d when its distance to rank
// (c + d)'s sub-box is within the ghost cutoff. It precomputes per-axis
// thresholds so the per-atom test is a handful of comparisons.
type SendQualifier struct {
	lo, hi  vec.V3
	side    vec.V3
	cutoff  float64
	shells  int
	binEdge [3][2]float64 // border-bin thresholds per axis: [axis][lo slab end, hi slab start]
	binsOK  bool
}

// NewSendQualifier builds the qualifier for one rank's sub-box.
func NewSendQualifier(lo, hi, side vec.V3, cutoff float64, shells int) *SendQualifier {
	q := &SendQualifier{lo: lo, hi: hi, side: side, cutoff: cutoff, shells: shells}
	// Border bins are exact only when the low and high slabs of each axis
	// do not overlap (sub-box side >= 2*cutoff) and one shell suffices.
	q.binsOK = shells == 1 &&
		side.X >= 2*cutoff && side.Y >= 2*cutoff && side.Z >= 2*cutoff
	q.binEdge[0] = [2]float64{lo.X + cutoff, hi.X - cutoff}
	q.binEdge[1] = [2]float64{lo.Y + cutoff, hi.Y - cutoff}
	q.binEdge[2] = [2]float64{lo.Z + cutoff, hi.Z - cutoff}
	return q
}

// BinsUsable reports whether the 3x3x3 border-bin fast path is exact for
// this sub-box geometry.
func (q *SendQualifier) BinsUsable() bool { return q.binsOK }

// axisQualifies reports whether coordinate x (on one axis with sub-box
// [lo,hi) and side s) is within cutoff of the neighbor box at offset d.
func axisQualifies(x, lo, hi, s, cutoff float64, d int) bool {
	switch {
	case d == 0:
		return true
	case d > 0:
		// Neighbor box starts at hi + (d-1)*s.
		return x >= hi+float64(d-1)*s-cutoff
	default:
		// Neighbor box ends at lo + (d+1)*s.
		return x < lo+float64(d+1)*s+cutoff
	}
}

// Qualifies reports whether an atom at x must be sent to the neighbor at
// offset d.
func (q *SendQualifier) Qualifies(x vec.V3, d vec.I3) bool {
	return axisQualifies(x.X, q.lo.X, q.hi.X, q.side.X, q.cutoff, d.X) &&
		axisQualifies(x.Y, q.lo.Y, q.hi.Y, q.side.Y, q.cutoff, d.Y) &&
		axisQualifies(x.Z, q.lo.Z, q.hi.Z, q.side.Z, q.cutoff, d.Z)
}

// Bin returns the 3x3x3 border-bin index of an atom (0..26) when the bin
// fast path is usable: per axis, 0 = low slab, 1 = interior, 2 = high slab.
func (q *SendQualifier) Bin(x vec.V3) int {
	b := func(v float64, e [2]float64) int {
		if v < e[0] {
			return 0
		}
		if v >= e[1] {
			return 2
		}
		return 1
	}
	return b(x.X, q.binEdge[0]) + 3*b(x.Y, q.binEdge[1]) + 9*b(x.Z, q.binEdge[2])
}

// BinDirections returns, for each of the 27 border bins, the list of
// one-shell neighbor directions that atoms in the bin must be sent to. The
// mapping is computed once during setup (section 3.5.2) so per-atom routing
// is a single bin lookup.
func (q *SendQualifier) BinDirections(dirs []vec.I3) [27][]vec.I3 {
	var out [27][]vec.I3
	match := func(bin, d int) bool {
		// Bin component 0 reaches d=-1, component 2 reaches d=+1,
		// interior reaches only d=0; d=0 always matches.
		switch d {
		case 0:
			return true
		case 1:
			return bin == 2
		default:
			return bin == 0
		}
	}
	for bz := 0; bz < 3; bz++ {
		for by := 0; by < 3; by++ {
			for bx := 0; bx < 3; bx++ {
				idx := bx + 3*by + 9*bz
				for _, d := range dirs {
					if match(bx, d.X) && match(by, d.Y) && match(bz, d.Z) {
						out[idx] = append(out[idx], d)
					}
				}
			}
		}
	}
	return out
}
