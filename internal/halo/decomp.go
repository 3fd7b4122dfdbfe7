package halo

import (
	"cmp"
	"fmt"
	"slices"

	"tofumd/internal/topo"
	"tofumd/internal/vec"
)

// Decomposition splits a continuous global periodic box over a 3D rank
// grid, one sub-box per rank — the spatial half of a halo plan. The rank
// grid normally comes from a topo.RankMap's Grid; apps with integer extents (lattice stencils) use CellRange instead of SubBox.
type Decomposition struct {
	// Box is the global periodic box lengths.
	Box vec.V3
	// Grid is the rank-grid shape.
	Grid vec.I3
	// side is the per-axis sub-box side length.
	side vec.V3
}

// NewDecomposition validates and builds a decomposition.
func NewDecomposition(box vec.V3, grid vec.I3) (*Decomposition, error) {
	if box.X <= 0 || box.Y <= 0 || box.Z <= 0 {
		return nil, fmt.Errorf("halo: invalid box %+v", box)
	}
	if grid.X <= 0 || grid.Y <= 0 || grid.Z <= 0 {
		return nil, fmt.Errorf("halo: invalid grid %+v", grid)
	}
	return &Decomposition{
		Box:  box,
		Grid: grid,
		side: box.Div(grid.ToV3()),
	}, nil
}

// Side returns the sub-box side lengths.
func (d *Decomposition) Side() vec.V3 { return d.side }

// SubBox returns the half-open region [lo, hi) of the rank at grid
// coordinate c.
func (d *Decomposition) SubBox(c vec.I3) (lo, hi vec.V3) {
	lo = d.side.Mul(c.ToV3())
	hi = d.side.Mul(c.Add(vec.I3{X: 1, Y: 1, Z: 1}).ToV3())
	return lo, hi
}

// OwnerCoord returns the grid coordinate owning position x (which must be
// inside the box; callers wrap first).
func (d *Decomposition) OwnerCoord(x vec.V3) vec.I3 {
	c := vec.I3{
		X: int(x.X / d.side.X),
		Y: int(x.Y / d.side.Y),
		Z: int(x.Z / d.side.Z),
	}
	// Guard the x == Box edge case from float rounding.
	if c.X >= d.Grid.X {
		c.X = d.Grid.X - 1
	}
	if c.Y >= d.Grid.Y {
		c.Y = d.Grid.Y - 1
	}
	if c.Z >= d.Grid.Z {
		c.Z = d.Grid.Z - 1
	}
	return c
}

// WrapPosition maps x into the periodic box.
func (d *Decomposition) WrapPosition(x vec.V3) vec.V3 {
	return vec.V3{
		X: vec.WrapPBC(x.X, d.Box.X),
		Y: vec.WrapPBC(x.Y, d.Box.Y),
		Z: vec.WrapPBC(x.Z, d.Box.Z),
	}
}

// ShellsFor returns how many shells of neighbor sub-boxes the communication
// needs for the given ghost cutoff: 1 when every sub-box side is at least
// the cutoff (26 neighbors), 2 when the cutoff exceeds a side (the Fig. 15
// regime with 62/124 neighbors), and so on.
func (d *Decomposition) ShellsFor(cutoff float64) int {
	shells := 1
	for _, side := range []float64{d.side.X, d.side.Y, d.side.Z} {
		need := int((cutoff-1e-12)/side) + 1
		if need > shells {
			shells = need
		}
	}
	return shells
}

// PBCShift returns the position shift a ghost sent in direction dir must
// carry when the receiving rank sits across a periodic boundary: the
// receiver at grid coordinate srcCoord+dir sees the payload offset by
// -wrap * Box on each wrapped axis.
func (d *Decomposition) PBCShift(srcCoord, dir vec.I3) vec.V3 {
	// When the target wraps past the high edge the receiver sits at a low
	// coordinate, so the ghost must appear below the box (shift -Box); the
	// mirror case shifts +Box.
	axis := func(c, dd, n int, box float64) float64 {
		t := c + dd
		s := 0.0
		for t < 0 {
			s += box
			t += n
		}
		for t >= n {
			s -= box
			t -= n
		}
		return s
	}
	return vec.V3{
		X: axis(srcCoord.X, dir.X, d.Grid.X, d.Box.X),
		Y: axis(srcCoord.Y, dir.Y, d.Grid.Y, d.Box.Y),
		Z: axis(srcCoord.Z, dir.Z, d.Grid.Z, d.Box.Z),
	}
}

// SplitExtent divides n integer cells over parts ranks: the first n%parts
// ranks get one extra cell. Returns the half-open range [lo, hi) of part
// idx. Lattice apps use it to slab a global cell count over the rank grid.
func SplitExtent(n, parts, idx int) (lo, hi int) {
	base := n / parts
	extra := n % parts
	lo = idx*base + min(idx, extra)
	hi = lo + base
	if idx < extra {
		hi++
	}
	return lo, hi
}

// CellRange returns the integer cell block [lo, hi) of the rank at grid
// coordinate c when global cell extent n is split over grid.
func CellRange(n, grid, c vec.I3) (lo, hi vec.I3) {
	lo.X, hi.X = SplitExtent(n.X, grid.X, c.X)
	lo.Y, hi.Y = SplitExtent(n.Y, grid.Y, c.Y)
	lo.Z, hi.Z = SplitExtent(n.Z, grid.Z, c.Z)
	return lo, hi
}

// Directions enumerates the neighbor offsets of an s-shell neighborhood:
// all non-zero offsets in {-s..s}^3. One shell gives 26, two give 124.
func Directions(shells int) []vec.I3 {
	var out []vec.I3
	for dz := -shells; dz <= shells; dz++ {
		for dy := -shells; dy <= shells; dy++ {
			for dx := -shells; dx <= shells; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				out = append(out, vec.I3{X: dx, Y: dy, Z: dz})
			}
		}
	}
	return out
}

// UpperHalf reports whether direction d is in the "upper" half of the
// neighborhood under the lexicographic (z, y, x) order. With Newton's 3rd
// law enabled, an MD rank receives ghosts only from its upper-half
// neighbors and sends its border atoms to the lower half (Fig. 5): 13 of
// 26 for one shell, 62 of 124 for two.
func UpperHalf(d vec.I3) bool {
	if d.Z != 0 {
		return d.Z > 0
	}
	if d.Y != 0 {
		return d.Y > 0
	}
	return d.X > 0
}

// HalfDirections returns the upper-half directions of an s-shell
// neighborhood: 13 for one shell, 62 for two.
func HalfDirections(shells int) []vec.I3 {
	var out []vec.I3
	for _, d := range Directions(shells) {
		if UpperHalf(d) {
			out = append(out, d)
		}
	}
	return out
}

// SendDirections returns the directions a rank sends ghosts to under the p2p
// pattern: with half (Newton on, half neighbor lists) the lower half, whose
// upper-half neighbors receive (Fig. 5); the full s-shell otherwise.
func SendDirections(shells int, half bool) []vec.I3 {
	if !half {
		return Directions(shells)
	}
	out := HalfDirections(shells)
	for i, d := range out {
		out[i] = vec.I3{X: -d.X, Y: -d.Y, Z: -d.Z}
	}
	return out
}

// LinkSpec is one directed channel of a halo plan: rank Src ships a
// payload to the neighbor Dst at grid offset Dir. Staged links additionally
// carry the dimension round and forwarding iteration they belong to.
type LinkSpec struct {
	Src, Dst int
	Dir      vec.I3
	// Stage3Dim is the dimension (0..2) of a staged link, -1 for p2p.
	Stage3Dim int
	// Stage3Iter is the forwarding iteration of a multi-shell staged link
	// (0-based).
	Stage3Iter int
}

// BuildLinkSpecs enumerates the directed link graph of a pattern over the
// rank map, in deterministic order: p2p yields one link per rank per send
// direction (rank-major); the staged pattern yields per dimension, per
// forwarding iteration, per sign, one link per rank. sendDirs is the p2p
// direction set (apps choose full shell vs Newton half shell) and is
// ignored by the staged pattern; shells is the forwarding depth.
func BuildLinkSpecs(m *topo.RankMap, p Pattern, shells int, sendDirs []vec.I3) []LinkSpec {
	return appendLinkSpecs(nil, m, p, shells, sendDirs)
}

// appendLinkSpecs appends BuildLinkSpecs(m, p, shells, sendDirs) to out.
func appendLinkSpecs(out []LinkSpec, m *topo.RankMap, p Pattern, shells int, sendDirs []vec.I3) []LinkSpec {
	if p == P2P {
		out = slices.Grow(out, m.Ranks()*len(sendDirs))
		for src := 0; src < m.Ranks(); src++ {
			for _, d := range sendDirs {
				out = append(out, LinkSpec{
					Src: src, Dst: m.NeighborRank(src, d), Dir: d,
					Stage3Dim: -1, Stage3Iter: 0,
				})
			}
		}
		return out
	}
	// Staged: per dimension, per forwarding iteration, both signs.
	out = slices.Grow(out, 6*shells*m.Ranks())
	for dim := 0; dim < 3; dim++ {
		for iter := 0; iter < shells; iter++ {
			for _, sign := range []int{-1, 1} {
				d := vec.I3{}
				d = d.SetComp(dim, sign)
				for src := 0; src < m.Ranks(); src++ {
					out = append(out, LinkSpec{
						Src: src, Dst: m.NeighborRank(src, d), Dir: d,
						Stage3Dim: dim, Stage3Iter: iter,
					})
				}
			}
		}
	}
	return out
}

// SpecLess orders link specs deterministically: by stage dimension, then
// forwarding iteration, then direction (z, y, x) — the per-rank link order
// every rank issues its links in (Plan.Send, Plan.Recv).
func SpecLess(a, b LinkSpec) bool { return specCompare(&a, &b) < 0 }

// specCompare is the three-way form of SpecLess, for slices.SortStableFunc.
func specCompare(a, b *LinkSpec) int {
	switch {
	case a.Stage3Dim != b.Stage3Dim:
		return cmp.Compare(a.Stage3Dim, b.Stage3Dim)
	case a.Stage3Iter != b.Stage3Iter:
		return cmp.Compare(a.Stage3Iter, b.Stage3Iter)
	case a.Dir.Z != b.Dir.Z:
		return cmp.Compare(a.Dir.Z, b.Dir.Z)
	case a.Dir.Y != b.Dir.Y:
		return cmp.Compare(a.Dir.Y, b.Dir.Y)
	}
	return cmp.Compare(a.Dir.X, b.Dir.X)
}

// RoundKey identifies one bulk-synchronous round of a halo operation: a
// single {-1, 0} for p2p, or one (Dim, Iter) pair per staged round.
type RoundKey struct{ Dim, Iter int }

// Rounds enumerates the bulk-synchronous rounds of one halo operation under
// the pattern: one round for p2p, 3*shells dimension rounds for the staged
// trunk exchange (reverse operations iterate the slice backwards).
func Rounds(p Pattern, shells int) []RoundKey {
	return appendRounds(nil, p, shells)
}

// appendRounds appends Rounds(p, shells) to out.
func appendRounds(out []RoundKey, p Pattern, shells int) []RoundKey {
	if p == P2P {
		return append(out, RoundKey{-1, 0})
	}
	for dim := 0; dim < 3; dim++ {
		for iter := 0; iter < shells; iter++ {
			out = append(out, RoundKey{dim, iter})
		}
	}
	return out
}

// InRound reports whether a link with the given stage assignment belongs to
// round k.
func InRound(stage3Dim, stage3Iter int, k RoundKey) bool {
	return stage3Dim == k.Dim && (k.Dim == -1 || stage3Iter == k.Iter)
}
