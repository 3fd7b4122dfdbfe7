package neighbor

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"tofumd/internal/md/atom"
	"tofumd/internal/vec"
	"tofumd/internal/xrand"
)

// buildReference is the straightforward 27-bin scan Build replaced, kept
// verbatim as the oracle: Build must reproduce its Start, Neigh and
// Candidates exactly, because Neigh order fixes the force summation order
// and Candidates feeds the virtual clock.
func buildReference(a *atom.Arrays, cutoff float64, mode Mode) *List {
	n := a.Total()
	l := &List{Mode: mode, Start: make([]int32, a.NLocal+1)}
	if a.NLocal == 0 {
		return l
	}
	cut2 := cutoff * cutoff

	// Compute the bounding box of all stored atoms.
	lo, hi := a.X[0], a.X[0]
	for _, x := range a.X[:n] {
		lo.X = math.Min(lo.X, x.X)
		lo.Y = math.Min(lo.Y, x.Y)
		lo.Z = math.Min(lo.Z, x.Z)
		hi.X = math.Max(hi.X, x.X)
		hi.Y = math.Max(hi.Y, x.Y)
		hi.Z = math.Max(hi.Z, x.Z)
	}
	// Bin extent >= cutoff so neighbors live in the 27 surrounding bins.
	nb := func(span float64) int {
		k := int(span / cutoff)
		if k < 1 {
			k = 1
		}
		return k
	}
	bx, by, bz := nb(hi.X-lo.X), nb(hi.Y-lo.Y), nb(hi.Z-lo.Z)
	inv := vec.V3{
		X: float64(bx) / math.Max(hi.X-lo.X, 1e-300),
		Y: float64(by) / math.Max(hi.Y-lo.Y, 1e-300),
		Z: float64(bz) / math.Max(hi.Z-lo.Z, 1e-300),
	}
	binOf := func(x vec.V3) int {
		cx := clamp(int((x.X-lo.X)*inv.X), 0, bx-1)
		cy := clamp(int((x.Y-lo.Y)*inv.Y), 0, by-1)
		cz := clamp(int((x.Z-lo.Z)*inv.Z), 0, bz-1)
		return cx + bx*(cy+by*cz)
	}
	// Counting sort into bins.
	nbins := bx * by * bz
	count := make([]int32, nbins+1)
	binIdx := make([]int32, n)
	for i := 0; i < n; i++ {
		b := binOf(a.X[i])
		binIdx[i] = int32(b)
		count[b+1]++
	}
	for b := 0; b < nbins; b++ {
		count[b+1] += count[b]
	}
	order := make([]int32, n)
	fill := make([]int32, nbins)
	for i := 0; i < n; i++ {
		b := binIdx[i]
		order[count[b]+fill[b]] = int32(i)
		fill[b]++
	}

	for i := 0; i < a.NLocal; i++ {
		l.Start[i] = int32(len(l.Neigh))
		xi := a.X[i]
		cx := clamp(int((xi.X-lo.X)*inv.X), 0, bx-1)
		cy := clamp(int((xi.Y-lo.Y)*inv.Y), 0, by-1)
		cz := clamp(int((xi.Z-lo.Z)*inv.Z), 0, bz-1)
		for dz := -1; dz <= 1; dz++ {
			z := cz + dz
			if z < 0 || z >= bz {
				continue
			}
			for dy := -1; dy <= 1; dy++ {
				y := cy + dy
				if y < 0 || y >= by {
					continue
				}
				for dx := -1; dx <= 1; dx++ {
					x := cx + dx
					if x < 0 || x >= bx {
						continue
					}
					b := x + bx*(y+by*z)
					for _, j32 := range order[count[b]:count[b+1]] {
						j := int(j32)
						if j == i {
							continue
						}
						switch mode {
						case HalfNewton:
							if j < a.NLocal {
								if j < i {
									continue
								}
							} else if !upper(xi, a.X[j]) {
								continue
							}
						case HalfShell:
							if j < a.NLocal && j < i {
								continue
							}
						}
						l.Candidates++
						d := a.X[j].Sub(xi)
						if d.Norm2() <= cut2 {
							l.Neigh = append(l.Neigh, j32)
						}
					}
				}
			}
		}
	}
	l.Start[a.NLocal] = int32(len(l.Neigh))
	return l
}

// withGhosts builds nl random locals in [0, side)^3 followed by ng ghosts
// in the shell of width shell around it. With oneSide the ghosts sit only
// above the box in x. Every fifth ghost copies a local's z (and every
// tenth its y too), so the HalfNewton tie-break reaches its y and x legs.
func withGhosts(nl, ng int, side, shell float64, oneSide bool, seed uint64) *atom.Arrays {
	rng := xrand.New(seed)
	a := atom.New(nl + ng)
	for i := 0; i < nl; i++ {
		a.AddLocal(int64(i+1), 1, vec.V3{
			X: rng.Float64() * side,
			Y: rng.Float64() * side,
			Z: rng.Float64() * side,
		}, vec.V3{})
	}
	outer := func() float64 { return -shell + rng.Float64()*(side+2*shell) }
	for g := 0; g < ng; g++ {
		p := vec.V3{X: outer(), Y: outer(), Z: outer()}
		if oneSide {
			p.X = side + rng.Float64()*shell
		} else {
			// Push the ghost out of the box through a random face.
			k := rng.Intn(3)
			v := rng.Float64() * shell
			if rng.Intn(2) == 0 {
				v = -v
			} else {
				v += side
			}
			p = p.SetComp(k, v)
		}
		if nl > 0 && g%5 == 0 {
			src := a.X[rng.Intn(nl)]
			p.Z = src.Z
			if g%10 == 0 {
				p.Y = src.Y
			}
		}
		a.AddGhost(int64(nl+g+1), 1, p)
	}
	return a
}

func sameList(t *testing.T, name string, got, want *List) {
	t.Helper()
	if got.Mode != want.Mode || got.Candidates != want.Candidates ||
		!slices.Equal(got.Start, want.Start) || !slices.Equal(got.Neigh, want.Neigh) {
		t.Errorf("%s: Build differs from reference: candidates %d vs %d, pairs %d vs %d",
			name, got.Candidates, want.Candidates, len(got.Neigh), len(want.Neigh))
	}
}

func TestBuildMatchesReference(t *testing.T) {
	type tc struct {
		name   string
		a      *atom.Arrays
		cutoff float64
	}
	cases := []tc{
		{"no-atoms", atom.New(0), 1},
		{"ghosts-only", withGhosts(0, 40, 4, 1.5, false, 1), 1.5},
		{"one-local", withGhosts(1, 0, 4, 1.5, false, 2), 1.5},
		{"single-bin", withGhosts(30, 30, 2, 0.5, false, 3), 5},
		{"ghosts-one-side", withGhosts(150, 120, 5, 1.3, true, 4), 1.3},
		{"flat-slab", func() *atom.Arrays {
			// Every atom at z = 0: one bin along z, ties on z everywhere.
			a := withGhosts(80, 40, 6, 1.2, false, 5)
			for i := range a.X {
				a.X[i].Z = 0
			}
			return a
		}(), 1.2},
	}
	// A unit lattice at cutoff 1: nearest pairs sit exactly on the cutoff,
	// which the list keeps (<=), and every coordinate ties.
	grid := atom.New(216)
	for k := 0; k < 216; k++ {
		grid.AddLocal(int64(k+1), 1, vec.V3{X: float64(k % 6), Y: float64(k / 6 % 6), Z: float64(k / 36)}, vec.V3{})
	}
	for k := 0; k < 36; k++ {
		grid.AddGhost(int64(217+k), 1, vec.V3{X: float64(k % 6), Y: float64(k / 6), Z: 6})
	}
	cases = append(cases, tc{"lattice-at-cutoff", grid, 1})
	// Two tight clumps in opposite corners leave most bins empty.
	sparse := withGhosts(60, 0, 1, 0, false, 6)
	for i := 30; i < 60; i++ {
		sparse.X[i] = sparse.X[i].Add(vec.V3{X: 9, Y: 9, Z: 9})
	}
	cases = append(cases, tc{"empty-bins", sparse, 1.1})
	// One bin holds all 900 atoms (span 3 < 2 cutoffs), so every scan range
	// is the whole system, longer than the list's spare capacity whenever the
	// list is within 900 of it: the scan switches between writing in place
	// and appending mid-build, and about half of each range is dropped.
	cases = append(cases, tc{"range-past-capacity", withGhosts(600, 300, 2, 0.5, false, 7), 1.6})
	for s := uint64(0); s < 12; s++ {
		nl := 20 + int(s)*37
		cases = append(cases, tc{
			name:   fmt.Sprintf("random-%d", s),
			a:      withGhosts(nl, nl/2+int(s)*11, 3+float64(s)*0.4, 1.4, s%4 == 3, 100+s),
			cutoff: 0.7 + 0.07*float64(s),
		})
	}
	for _, c := range cases {
		for _, mode := range []Mode{HalfNewton, HalfShell, Full} {
			sameList(t, c.name+"/"+mode.String(), Build(c.a, c.cutoff, mode), buildReference(c.a, c.cutoff, mode))
		}
	}
}
