package neighbor

import (
	"math"
	"testing"
	"testing/quick"

	"tofumd/internal/md/atom"
	"tofumd/internal/oracle"
	"tofumd/internal/vec"
	"tofumd/internal/xrand"
)

// cluster builds a random isolated cluster of n atoms in a unit-density box.
func cluster(n int, seed uint64) *atom.Arrays {
	a := atom.New(n)
	rng := xrand.New(seed)
	l := 4.0
	for i := 0; i < n; i++ {
		a.AddLocal(int64(i+1), 1, vec.V3{
			X: rng.Float64() * l,
			Y: rng.Float64() * l,
			Z: rng.Float64() * l,
		}, vec.V3{})
	}
	return a
}

// brutePairs counts pairs within cutoff by brute force.
func brutePairs(a *atom.Arrays, cutoff float64) int {
	c2 := cutoff * cutoff
	n := 0
	for i := 0; i < a.NLocal; i++ {
		for j := i + 1; j < a.NLocal; j++ {
			if a.X[j].Sub(a.X[i]).Norm2() <= c2 {
				n++
			}
		}
	}
	return n
}

func TestHalfListMatchesBruteForce(t *testing.T) {
	a := cluster(200, 1)
	l := Build(a, 1.2, HalfShell)
	if l.Pairs() != brutePairs(a, 1.2) {
		t.Errorf("half list has %d pairs, brute force %d", l.Pairs(), brutePairs(a, 1.2))
	}
}

func TestFullListDoublesHalf(t *testing.T) {
	a := cluster(150, 2)
	half := Build(a, 1.5, HalfShell)
	full := Build(a, 1.5, Full)
	if full.Pairs() != 2*half.Pairs() {
		t.Errorf("full %d != 2 x half %d", full.Pairs(), half.Pairs())
	}
}

func TestFullListSymmetric(t *testing.T) {
	a := cluster(100, 3)
	l := Build(a, 1.5, Full)
	// j in N(i) <=> i in N(j)
	set := map[[2]int]bool{}
	for i := 0; i < a.NLocal; i++ {
		for _, j := range l.NeighborsOf(i) {
			set[[2]int{i, int(j)}] = true
		}
	}
	for k := range set {
		if !set[[2]int{k[1], k[0]}] {
			t.Fatalf("pair (%d,%d) not symmetric", k[0], k[1])
		}
	}
}

func TestHalfNewtonWithGhostsCountsOnce(t *testing.T) {
	// Build two atoms, one local and one ghost, on either side of a
	// boundary: the coordinate tie-break must include the pair exactly
	// once between the two owner perspectives.
	mk := func(localPos, ghostPos vec.V3) int {
		a := atom.New(2)
		a.AddLocal(1, 1, localPos, vec.V3{})
		a.AddGhost(2, 1, ghostPos)
		l := Build(a, 2.0, HalfNewton)
		return l.Pairs()
	}
	// Perspective A: ghost above local -> pair stored. Perspective B (roles
	// swapped): ghost below local -> skipped. A tie on z resolves by y, then x.
	for _, d := range []vec.V3{{Z: 1}, {Y: 1}, {X: 1}} {
		stored := mk(vec.V3{}, d) + mk(d, vec.V3{})
		if err := oracle.Check("half-newton-once", math.Abs(float64(stored-1))); err != nil {
			t.Errorf("offset %+v: %v", d, err)
		}
	}
}

func TestEmptyAndSingle(t *testing.T) {
	a := atom.New(0)
	l := Build(a, 1, HalfShell)
	if l.Pairs() != 0 {
		t.Error("empty list not empty")
	}
	a.AddLocal(1, 1, vec.V3{}, vec.V3{})
	l = Build(a, 1, Full)
	if l.Pairs() != 0 {
		t.Error("single atom has neighbors")
	}
	if got := len(l.NeighborsOf(0)); got != 0 {
		t.Errorf("NeighborsOf single = %d", got)
	}
}

func TestCandidatesAtLeastPairs(t *testing.T) {
	a := cluster(300, 4)
	l := Build(a, 1.0, HalfShell)
	if l.Candidates < l.Pairs() {
		t.Errorf("candidates %d < pairs %d", l.Candidates, l.Pairs())
	}
}

// Property: the half-shell list never misses a brute-force pair for random
// clusters of varying size and cutoff.
func TestHalfListCompleteProperty(t *testing.T) {
	f := func(seed uint16, nRaw uint8, cutFrac float64) bool {
		n := 20 + int(nRaw)%100
		cutoff := 0.5 + (cutFrac-float64(int(cutFrac)))*1.0
		if cutoff < 0.5 {
			cutoff = 0.5
		}
		a := cluster(n, uint64(seed)+10)
		l := Build(a, cutoff, HalfShell)
		return l.Pairs() == brutePairs(a, cutoff)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMaxDisplacement2(t *testing.T) {
	cur := []vec.V3{{X: 1}, {X: 2}, {X: 3}}
	hold := []vec.V3{{X: 1}, {X: 2.5}, {X: 3}}
	if got := MaxDisplacement2(cur, hold, 3); got != 0.25 {
		t.Errorf("MaxDisplacement2 = %v", got)
	}
	if got := MaxDisplacement2(cur, hold, 1); got != 0 {
		t.Errorf("first-atom-only displacement = %v", got)
	}
}

func TestModeString(t *testing.T) {
	if HalfNewton.String() != "half-newton" || HalfShell.String() != "half-shell" || Full.String() != "full" {
		t.Error("mode names wrong")
	}
}
