// Package topo models the Tofu interconnect D (TofuD) topology of the Fugaku
// supercomputer and the embedding of a 3D MD domain decomposition into it.
//
// TofuD is a "torus fusion" 6D mesh/torus: nodes carry coordinates
// (X, Y, Z, a, b, c) where (a, b, c) index a 2x3x2 cell of 12 nodes and
// (X, Y, Z) index a 3D torus of cells. Fugaku's job manager hands out
// allocations in "shelf" units of 2x3x8 = 48 nodes and can present the
// allocation to the application as a plain 3D torus whose shape is the cell
// shape times the cell-grid shape (for example 8x12x8 = 768 nodes in the
// paper's first strong-scaling point). The MD code then maps its 3D grid of
// MPI ranks directly onto that virtual 3D torus, preserving physical
// adjacency so that ghost-region neighbors are at most a few hops away
// (the paper's "topo map" optimization, section 3.5.3).
package topo

import (
	"fmt"

	"tofumd/internal/vec"
)

// Cell is the TofuD unit cell shape (a, b, c) = 2x3x2, 12 nodes.
var Cell = vec.I3{X: 2, Y: 3, Z: 2}

// ShelfShape is the allocation granularity of the Fugaku job manager,
// 2x3x8 = 48 nodes.
var ShelfShape = vec.I3{X: 2, Y: 3, Z: 8}

// Coord6D is a full TofuD coordinate.
type Coord6D struct {
	X, Y, Z int // cell-grid torus coordinates
	A, B, C int // intra-cell coordinates, 0<=A<2, 0<=B<3, 0<=C<2
}

// Torus3D is the virtual 3D torus view of an allocation, the form in which
// the application addresses nodes. Shape is the node-grid extent per axis.
type Torus3D struct {
	Shape vec.I3
}

// NewTorus3D validates the shape and returns the torus. Every axis must be
// positive.
func NewTorus3D(shape vec.I3) (*Torus3D, error) {
	if shape.X <= 0 || shape.Y <= 0 || shape.Z <= 0 {
		return nil, fmt.Errorf("topo: invalid torus shape %+v", shape)
	}
	return &Torus3D{Shape: shape}, nil
}

// Nodes returns the node count of the allocation.
func (t *Torus3D) Nodes() int { return t.Shape.Prod() }

// ID maps a node coordinate to its linear node id (x fastest).
func (t *Torus3D) ID(c vec.I3) int {
	c = t.Wrap(c)
	return c.X + t.Shape.X*(c.Y+t.Shape.Y*c.Z)
}

// CoordOf inverts ID.
func (t *Torus3D) CoordOf(id int) vec.I3 {
	x := id % t.Shape.X
	y := (id / t.Shape.X) % t.Shape.Y
	z := id / (t.Shape.X * t.Shape.Y)
	return vec.I3{X: x, Y: y, Z: z}
}

// Wrap applies periodic wrapping to a node coordinate.
func (t *Torus3D) Wrap(c vec.I3) vec.I3 {
	return vec.I3{
		X: mod(c.X, t.Shape.X),
		Y: mod(c.Y, t.Shape.Y),
		Z: mod(c.Z, t.Shape.Z),
	}
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// AxisDist returns the minimal torus distance between coordinates a and b
// along one axis of extent n.
func AxisDist(a, b, n int) int {
	d := mod(a-b, n)
	if d > n-d {
		d = n - d
	}
	return d
}

// Hops returns the dimension-order routing hop count between two nodes of
// the torus: the sum of per-axis minimal torus distances. Two ranks on the
// same node are 0 hops apart.
func (t *Torus3D) Hops(a, b vec.I3) int {
	return AxisDist(a.X, b.X, t.Shape.X) +
		AxisDist(a.Y, b.Y, t.Shape.Y) +
		AxisDist(a.Z, b.Z, t.Shape.Z)
}

// HopTable answers Torus3D.Hops from per-axis distance tables: h[ax][a-b+n]
// is AxisDist(a, b, n) on axis ax of extent n (2n entries), so a hop count
// is three lookups instead of three AxisDist calls.
type HopTable [3][]int32

// NewHopTable tabulates the torus's per-axis distances.
func NewHopTable(t *Torus3D) HopTable {
	var h HopTable
	for ax := range h {
		n := t.Shape.Comp(ax)
		h[ax] = make([]int32, 2*n)
		for d := 1 - n; d < n; d++ {
			h[ax][d+n] = int32(AxisDist(d, 0, n))
		}
	}
	return h
}

// Hops returns the torus's Hops(a, b).
func (h *HopTable) Hops(a, b vec.I3) int {
	dx, dy, dz := h[0], h[1], h[2]
	return int(dx[a.X-b.X+len(dx)/2] + dy[a.Y-b.Y+len(dy)/2] + dz[a.Z-b.Z+len(dz)/2])
}

// To6D folds a virtual 3D node coordinate back into full TofuD coordinates,
// assuming the standard folding where the allocation's X/Y/Z axes are the
// cell axes (a, b, c) interleaved with the cell grid: axis extent =
// cellExtent * gridExtent. When an axis extent is not divisible by the cell
// extent the whole axis lives in the cell grid (A/B/C = 0), matching how
// non-cell-aligned allocations are presented.
func (t *Torus3D) To6D(c vec.I3) Coord6D {
	var out Coord6D
	fold := func(v, extent, cell int) (grid, intra int) {
		if extent%cell == 0 {
			return v / cell, v % cell
		}
		return v, 0
	}
	out.X, out.A = fold(c.X, t.Shape.X, Cell.X)
	out.Y, out.B = fold(c.Y, t.Shape.Y, Cell.Y)
	out.Z, out.C = fold(c.Z, t.Shape.Z, Cell.Z)
	return out
}

// ShelfAligned reports whether the allocation is an integral number of
// shelves, the granularity at which the Fugaku job system forms a torus.
func (t *Torus3D) ShelfAligned() bool {
	return t.Nodes()%ShelfShape.Prod() == 0
}

// PaperStrongScalingShapes returns the node allocations used in the paper's
// strong-scaling evaluation (section 4.3.1): 768, 2160, 6144, 18432 and
// 36864 nodes.
func PaperStrongScalingShapes() []vec.I3 {
	return []vec.I3{
		{X: 8, Y: 12, Z: 8},
		{X: 12, Y: 15, Z: 12},
		{X: 16, Y: 24, Z: 16},
		{X: 24, Y: 32, Z: 24},
		{X: 32, Y: 36, Z: 32},
	}
}

// PaperWeakScalingShapes returns the node allocations of the weak-scaling
// evaluation (section 4.3.2): 768 to 20736 nodes.
func PaperWeakScalingShapes() []vec.I3 {
	return []vec.I3{
		{X: 8, Y: 12, Z: 8},
		{X: 12, Y: 15, Z: 12},
		{X: 16, Y: 24, Z: 16},
		{X: 24, Y: 36, Z: 24},
	}
}
