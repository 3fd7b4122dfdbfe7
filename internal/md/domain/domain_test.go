package domain

import (
	"math"
	"testing"
	"testing/quick"

	"tofumd/internal/halo"
	"tofumd/internal/vec"
)

// TestShellsFor, TestPBCShift and TestWrapPosition below exercise
// internal/halo; they predate the library's extraction and stay here,
// calling halo directly, because internal/halo already has tests of those
// names. The other decomposition and direction tests moved to internal/halo.

func mustDecomp(t *testing.T, box vec.V3, grid vec.I3) *halo.Decomposition {
	t.Helper()
	d, err := halo.NewDecomposition(box, grid)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestShellsFor(t *testing.T) {
	d := mustDecomp(t, vec.V3{X: 8, Y: 8, Z: 8}, vec.I3{X: 4, Y: 4, Z: 4}) // side 2
	if got := d.ShellsFor(1.9); got != 1 {
		t.Errorf("ShellsFor(1.9) = %d", got)
	}
	if got := d.ShellsFor(2.1); got != 2 {
		t.Errorf("ShellsFor(2.1) = %d", got)
	}
	if got := d.ShellsFor(4.5); got != 3 {
		t.Errorf("ShellsFor(4.5) = %d", got)
	}
}

func TestSendQualifierFaces(t *testing.T) {
	q := NewSendQualifier(vec.V3{}, vec.V3{X: 10, Y: 10, Z: 10}, vec.V3{X: 10, Y: 10, Z: 10}, 2, 1)
	plusX := vec.I3{X: 1}
	if !q.Qualifies(vec.V3{X: 9, Y: 5, Z: 5}, plusX) {
		t.Error("atom near +x face must qualify")
	}
	if q.Qualifies(vec.V3{X: 5, Y: 5, Z: 5}, plusX) {
		t.Error("interior atom must not qualify")
	}
	corner := vec.I3{X: 1, Y: 1, Z: 1}
	if !q.Qualifies(vec.V3{X: 9, Y: 9, Z: 9}, corner) {
		t.Error("corner atom must qualify for the corner neighbor")
	}
	if q.Qualifies(vec.V3{X: 9, Y: 5, Z: 9}, corner) {
		t.Error("edge atom must not qualify for the corner neighbor")
	}
}

func TestSendQualifierTwoShells(t *testing.T) {
	// Sub-box side 2, cutoff 3: the +2 neighbor's box starts one side away.
	q := NewSendQualifier(vec.V3{}, vec.V3{X: 2, Y: 2, Z: 2}, vec.V3{X: 2, Y: 2, Z: 2}, 3, 2)
	if q.BinsUsable() {
		t.Error("bins must be unusable when side < 2*cutoff")
	}
	d2 := vec.I3{X: 2}
	// Neighbor +2 occupies [4,6); within cutoff 3 means x >= 1.
	if !q.Qualifies(vec.V3{X: 1.5, Y: 1, Z: 1}, d2) {
		t.Error("x=1.5 must reach the +2 neighbor")
	}
	if q.Qualifies(vec.V3{X: 0.5, Y: 1, Z: 1}, d2) {
		t.Error("x=0.5 must not reach the +2 neighbor")
	}
}

// Property: the qualifier test equals the geometric distance test between
// the atom and the neighbor sub-box.
func TestQualifierEqualsDistanceProperty(t *testing.T) {
	side := vec.V3{X: 4, Y: 4, Z: 4}
	lo := vec.V3{X: 8, Y: 8, Z: 8}
	hi := lo.Add(side)
	cutoff := 3.0
	q := NewSendQualifier(lo, hi, side, cutoff, 2)
	boxDist := func(x float64, blo, bhi float64) float64 {
		if x < blo {
			return blo - x
		}
		if x >= bhi {
			return x - bhi
		}
		return 0
	}
	f := func(fx, fy, fz float64, di, dj, dk int8) bool {
		x := vec.V3{
			X: lo.X + math.Mod(math.Abs(fx), side.X),
			Y: lo.Y + math.Mod(math.Abs(fy), side.Y),
			Z: lo.Z + math.Mod(math.Abs(fz), side.Z),
		}
		mod5 := func(v int8) int {
			m := int(v) % 5
			if m < 0 {
				m += 5
			}
			return m - 2 // in [-2, 2]
		}
		d := vec.I3{X: mod5(di), Y: mod5(dj), Z: mod5(dk)}
		if d == (vec.I3{}) {
			return true
		}
		// Per-axis distance to the neighbor box.
		ok := true
		for ax := 0; ax < 3; ax++ {
			dd := d.Comp(ax)
			blo := lo.Comp(ax) + float64(dd)*side.Comp(ax)
			bhi := blo + side.Comp(ax)
			if boxDist(x.Comp(ax), blo, bhi) > cutoff {
				ok = false
			}
		}
		return q.Qualifies(x, d) == ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinDirectionsCoverage(t *testing.T) {
	// With a geometry where bins are exact, bin routing must agree with
	// the direct qualifier for lattice-like points.
	side := vec.V3{X: 10, Y: 10, Z: 10}
	q := NewSendQualifier(vec.V3{}, side, side, 2, 1)
	if !q.BinsUsable() {
		t.Fatal("bins should be usable at side 10, cutoff 2")
	}
	dirs := halo.Directions(1)
	binDirs := q.BinDirections(dirs)
	for _, p := range []vec.V3{
		{X: 1, Y: 5, Z: 5}, {X: 9.5, Y: 9.5, Z: 9.5}, {X: 5, Y: 5, Z: 5},
		{X: 0.5, Y: 0.5, Z: 5}, {X: 9.9, Y: 5, Z: 0.1},
	} {
		want := map[vec.I3]bool{}
		for _, d := range dirs {
			if q.Qualifies(p, d) {
				want[d] = true
			}
		}
		got := map[vec.I3]bool{}
		for _, d := range binDirs[q.Bin(p)] {
			got[d] = true
		}
		if len(got) != len(want) {
			t.Errorf("point %+v: bin gives %d dirs, qualifier %d", p, len(got), len(want))
			continue
		}
		for d := range want {
			if !got[d] {
				t.Errorf("point %+v: direction %+v missing from bin route", p, d)
			}
		}
	}
}

func TestPBCShift(t *testing.T) {
	d := mustDecomp(t, vec.V3{X: 10, Y: 10, Z: 10}, vec.I3{X: 2, Y: 2, Z: 2})
	// Sender at high x sends in +x: the receiver wraps to x=0, so the
	// ghost must appear below zero.
	s := d.PBCShift(vec.I3{X: 1}, vec.I3{X: 1})
	if s.X != -10 || s.Y != 0 || s.Z != 0 {
		t.Errorf("+x wrap shift = %+v", s)
	}
	// Sender at x=0 sends in -x: ghost appears above the box.
	s = d.PBCShift(vec.I3{}, vec.I3{X: -1})
	if s.X != 10 {
		t.Errorf("-x wrap shift = %+v", s)
	}
	// Interior send: no shift.
	s = d.PBCShift(vec.I3{}, vec.I3{X: 1})
	if s != (vec.V3{}) {
		t.Errorf("interior shift = %+v", s)
	}
	// Two-shell wrap on a 2-rank axis.
	s = d.PBCShift(vec.I3{}, vec.I3{X: -2})
	if s.X != 10 {
		t.Errorf("-2 wrap shift = %+v", s)
	}
}

func TestWrapPosition(t *testing.T) {
	d := mustDecomp(t, vec.V3{X: 10, Y: 10, Z: 10}, vec.I3{X: 2, Y: 2, Z: 2})
	w := d.WrapPosition(vec.V3{X: -1, Y: 11, Z: 5})
	if w != (vec.V3{X: 9, Y: 1, Z: 5}) {
		t.Errorf("wrapped = %+v", w)
	}
}
