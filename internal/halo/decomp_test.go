package halo_test

import (
	"math"
	"testing"
	"testing/quick"

	"tofumd/internal/halo"
	"tofumd/internal/vec"
)

func mustDecomp(t *testing.T, box vec.V3, grid vec.I3) *halo.Decomposition {
	t.Helper()
	d, err := halo.NewDecomposition(box, grid)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDecompRejectsBad(t *testing.T) {
	if _, err := halo.NewDecomposition(vec.V3{X: -1, Y: 1, Z: 1}, vec.I3{X: 1, Y: 1, Z: 1}); err == nil {
		t.Error("negative box accepted")
	}
	if _, err := halo.NewDecomposition(vec.V3{X: 1, Y: 1, Z: 1}, vec.I3{X: 0, Y: 1, Z: 1}); err == nil {
		t.Error("zero grid accepted")
	}
}

func TestSubBoxTiling(t *testing.T) {
	d := mustDecomp(t, vec.V3{X: 12, Y: 9, Z: 6}, vec.I3{X: 4, Y: 3, Z: 2})
	lo, hi := d.SubBox(vec.I3{X: 1, Y: 2, Z: 0})
	if lo != (vec.V3{X: 3, Y: 6, Z: 0}) || hi != (vec.V3{X: 6, Y: 9, Z: 3}) {
		t.Errorf("sub-box [%+v, %+v)", lo, hi)
	}
}

func TestOwnerCoordMatchesSubBox(t *testing.T) {
	d := mustDecomp(t, vec.V3{X: 10, Y: 10, Z: 10}, vec.I3{X: 3, Y: 3, Z: 3})
	f := func(xf, yf, zf float64) bool {
		x := vec.V3{
			X: math.Mod(math.Abs(xf), 10),
			Y: math.Mod(math.Abs(yf), 10),
			Z: math.Mod(math.Abs(zf), 10),
		}
		c := d.OwnerCoord(x)
		lo, hi := d.SubBox(c)
		return x.X >= lo.X && x.X < hi.X+1e-12 &&
			x.Y >= lo.Y && x.Y < hi.Y+1e-12 &&
			x.Z >= lo.Z && x.Z < hi.Z+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOwnerCoordBoxEdge(t *testing.T) {
	d := mustDecomp(t, vec.V3{X: 9, Y: 9, Z: 9}, vec.I3{X: 3, Y: 3, Z: 3})
	c := d.OwnerCoord(vec.V3{X: 9, Y: 9, Z: 9}) // exactly at the box edge
	if c != (vec.I3{X: 2, Y: 2, Z: 2}) {
		t.Errorf("edge owner = %+v", c)
	}
}

func TestDirectionsCounts(t *testing.T) {
	if got := len(halo.Directions(1)); got != 26 {
		t.Errorf("1-shell directions = %d", got)
	}
	if got := len(halo.Directions(2)); got != 124 {
		t.Errorf("2-shell directions = %d", got)
	}
	if got := len(halo.HalfDirections(1)); got != 13 {
		t.Errorf("1-shell half = %d", got)
	}
	if got := len(halo.HalfDirections(2)); got != 62 {
		t.Errorf("2-shell half = %d", got)
	}
}

func TestUpperHalfPartitions(t *testing.T) {
	// Every direction is upper xor its negation is upper.
	for _, d := range halo.Directions(2) {
		neg := vec.I3{X: -d.X, Y: -d.Y, Z: -d.Z}
		if halo.UpperHalf(d) == halo.UpperHalf(neg) {
			t.Errorf("direction %+v and its negation agree", d)
		}
	}
}
