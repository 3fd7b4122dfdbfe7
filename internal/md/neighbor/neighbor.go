// Package neighbor builds Verlet neighbor lists over binned atoms, in the
// three flavors the paper's experiments need:
//
//   - HalfNewton: the LAMMPS default with Newton's 3rd law on and a full
//     surrounding ghost shell (3-stage communication). Local pairs are
//     stored once (j > i); pairs with ghosts use a coordinate tie-break so
//     exactly one of the two owning ranks computes each cross-boundary pair.
//   - HalfShell: the p2p pattern of Fig. 5, where ghosts exist only from
//     the upper-half neighbors; every local-ghost pair is stored
//     unconditionally and the force flows back in the reverse stage.
//   - Full: every neighbor of every local atom (Newton off, or potentials
//     like Tersoff/DeePMD that need full lists, section 4.4).
//
// Lists are built with cutoff = force cutoff + skin and reused until an
// atom moves more than half the skin (the "check yes" trigger of Table 2)
// or a forced rebuild interval expires.
package neighbor

import (
	"math"
	"sync"

	"tofumd/internal/md/atom"
	"tofumd/internal/vec"
)

// Mode selects the list flavor.
type Mode int

const (
	// HalfNewton is the full-ghost-shell half list (3-stage pattern).
	HalfNewton Mode = iota
	// HalfShell is the upper-half-ghost half list (p2p pattern).
	HalfShell
	// Full stores both directions of every pair.
	Full
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case HalfNewton:
		return "half-newton"
	case HalfShell:
		return "half-shell"
	default:
		return "full"
	}
}

// List is a compressed neighbor list: the neighbors of local atom i are
// Neigh[Start[i]:Start[i+1]].
type List struct {
	Mode  Mode
	Start []int32
	Neigh []int32
	// Candidates counts distance checks performed during the build (the
	// cost-model input).
	Candidates int
}

// Pairs returns the stored pair count.
func (l *List) Pairs() int { return len(l.Neigh) }

// NeighborsOf returns the neighbor slice of local atom i.
func (l *List) NeighborsOf(i int) []int32 {
	return l.Neigh[l.Start[i]:l.Start[i+1]]
}

// upper reports whether position b is "above" a in the lexicographic
// (z, y, x) order used to assign cross-boundary pairs to exactly one rank.
func upper(a, b vec.V3) bool {
	if b.Z != a.Z {
		return b.Z > a.Z
	}
	if b.Y != a.Y {
		return b.Y > a.Y
	}
	return b.X > a.X
}

// Build constructs the neighbor list for the rank's atoms. The bin grid
// covers locals and ghosts; cutoff is the neighbor cutoff (force cutoff +
// skin).
func Build(a *atom.Arrays, cutoff float64, mode Mode) *List {
	l := new(List)
	l.Rebuild(a, cutoff, mode)
	return l
}

// Rebuild makes l the neighbor list Build would return, in l's own Start
// and Neigh storage: a rank rebuilding its list every few steps allocates
// nothing once the storage has grown to fit. The bin scratch comes from a
// pool shared by all builds and goes back when the build ends.
func (l *List) Rebuild(a *atom.Arrays, cutoff float64, mode Mode) {
	n := a.Total()
	l.Mode, l.Candidates = mode, 0
	take(&l.Start, a.NLocal+1)
	l.Neigh = l.Neigh[:0]
	if a.NLocal == 0 {
		l.Start[0] = 0
		return
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
	// Stable counting sort into bins: within a bin, atoms keep ascending
	// index order, so its locals precede its ghosts.
	nbins := bx * by * bz
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	count := take(&sc.count, nbins+1)
	locals := take(&sc.locals, nbins) // locals per bin
	clear(count)
	clear(locals)
	binIdx := take(&sc.binIdx, n)
	for i := 0; i < n; i++ {
		b := binOf(a.X[i])
		binIdx[i] = int32(b)
		count[b+1]++
		if i < a.NLocal {
			locals[b]++
		}
	}
	for b := 0; b < nbins; b++ {
		count[b+1] += count[b]
	}
	order := take(&sc.order, n)
	xs := take(&sc.xs, n) // positions in bin order, so scans stream
	fill := take(&sc.fill, nbins)
	clear(fill)
	for i := 0; i < n; i++ {
		b := binIdx[i]
		k := count[b] + fill[b]
		order[k] = int32(i)
		xs[k] = a.X[i]
		fill[b]++
	}

	// seen[b] counts the locals of bin b already visited as i. They are the
	// bin's first entries, and exactly the locals j < i a half list skips
	// without counting them as candidates, so half scans start past them.
	seen := take(&sc.seen, nbins)
	clear(seen)
	half := mode != Full
	s := scan{xs: xs, order: order, cut2: cut2, neigh: l.Neigh}
	for i := 0; i < a.NLocal; i++ {
		l.Start[i] = int32(len(s.neigh))
		xi := a.X[i]
		bi := int(binIdx[i])
		self := int(count[bi] + seen[bi]) // i's own slot in bin order
		cx, cy, cz := bi%bx, bi/bx%by, bi/(bx*by)
		x0, x1 := max(cx-1, 0), min(cx+1, bx-1)
		y0, y1 := max(cy-1, 0), min(cy+1, by-1)
		z0, z1 := max(cz-1, 0), min(cz+1, bz-1)
		for z := z0; z <= z1; z++ {
			for y := y0; y <= y1; y++ {
				row := bx * (y + by*z)
				if !half {
					// The row's bins are adjacent in bin order: one range.
					s.around(xi, int(count[row+x0]), int(count[row+x1+1]), self)
					continue
				}
				for b := row + x0; b <= row+x1; b++ {
					lo, hi := int(count[b]+seen[b]), int(count[b+1])
					if b == bi {
						lo++ // i itself sits first past the seen locals
					}
					if mode == HalfShell {
						s.within(xi, lo, hi)
						continue
					}
					// HalfNewton: locals j > i always, ghosts by tie-break.
					mid := int(count[b] + locals[b])
					s.within(xi, lo, mid)
					s.above(xi, mid, hi)
				}
			}
		}
		seen[bi]++
	}
	l.Neigh = s.neigh
	l.Candidates = s.candidates
	l.Start[a.NLocal] = int32(len(l.Neigh))
}

// scratch is one build's bin storage; between builds it sits in
// scratchPool, which the garbage collector may empty.
type scratch struct {
	count, locals, binIdx, order, fill, seen []int32
	xs                                       []vec.V3
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// take resizes *buf to n entries, keeping its storage when it fits, and
// returns it; kept entries hold whatever they held.
func take[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// scan is the candidate-distance check of one Build, over positions stored
// in bin order.
type scan struct {
	xs         []vec.V3
	order      []int32
	cut2       float64
	neigh      []int32
	candidates int
}

// within checks bin-order slots [lo, hi) against xi and appends the atoms
// inside the cutoff. When the list has room for the whole range, every
// slot's atom is written past the list's end and the end advances only on
// a kept one, so the loop carries no data-dependent branch: one candidate
// in eight to ten is kept, in no pattern a branch predictor could learn,
// and a branch would mispredict on nearly every kept one.
func (s *scan) within(xi vec.V3, lo, hi int) {
	if lo >= hi {
		return
	}
	s.candidates += hi - lo
	xs, order := s.xs[lo:hi], s.order[lo:hi]
	out := s.spare(len(xs))
	if out == nil {
		for k := range xs {
			if xs[k].Sub(xi).Norm2() <= s.cut2 {
				s.neigh = append(s.neigh, order[k])
			}
		}
		return
	}
	kept := 0
	for k := range xs {
		d := xs[k].Sub(xi)
		out[kept] = order[k]
		if d.Norm2() <= s.cut2 {
			kept++
		}
	}
	s.neigh = s.neigh[:len(s.neigh)+kept]
}

// above is within restricted to the slots upper of xi: the HalfNewton rule
// for ghosts. Slots it passes over are not candidates. The upper test stays
// a branch: folding it in too means measuring every slot's distance, which
// read no faster in the half-Newton build benchmark.
func (s *scan) above(xi vec.V3, lo, hi int) {
	if lo >= hi {
		return
	}
	xs, order := s.xs[lo:hi], s.order[lo:hi]
	out := s.spare(len(xs))
	kept := 0
	for k, xj := range xs {
		if !upper(xi, xj) {
			continue
		}
		s.candidates++
		if out == nil {
			if xj.Sub(xi).Norm2() <= s.cut2 {
				s.neigh = append(s.neigh, order[k])
			}
			continue
		}
		out[kept] = order[k]
		if xj.Sub(xi).Norm2() <= s.cut2 {
			kept++
		}
	}
	s.neigh = s.neigh[:len(s.neigh)+kept]
}

// spare returns the m slots past the list's end, or nil when the list's
// capacity does not reach that far. The caller then appends its kept atoms
// one at a time, so the list grows exactly when and as the plain append
// loop grows it: Build allocates the same bytes in the same calls.
func (s *scan) spare(m int) []int32 {
	n := len(s.neigh)
	if cap(s.neigh)-n < m {
		return nil
	}
	return s.neigh[n : n+m]
}

// around is within over [lo, hi) minus slot self, which holds i itself.
func (s *scan) around(xi vec.V3, lo, hi, self int) {
	if self < lo || self >= hi {
		s.within(xi, lo, hi)
		return
	}
	s.within(xi, lo, self)
	s.within(xi, self+1, hi)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MaxDisplacement2 returns the squared maximum displacement of locals from
// their positions at the last rebuild; the "check yes" trigger compares it
// against (skin/2)^2.
func MaxDisplacement2(cur, hold []vec.V3, nLocal int) float64 {
	var max float64
	for i := 0; i < nLocal; i++ {
		d := cur[i].Sub(hold[i]).Norm2()
		if d > max {
			max = d
		}
	}
	return max
}
