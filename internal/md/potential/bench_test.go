package potential

import (
	"testing"

	"tofumd/internal/md/atom"
	"tofumd/internal/md/neighbor"
	"tofumd/internal/xrand"
)

// Layer benchmarks: each kernel and the list build on one jittered lattice
// at its workload's density (LJ at 0.84 with a 0.3 skin, EAM at copper's
// with a 1 A skin), so a kernel change reads a host number per layer
// without running the end-to-end harness. The jitter of 0.3 spacings makes
// which listed pairs fall in the skin vary from row to row, as in a
// thermalized system: 29% of the LJ list and 53% of the EAM list lie beyond
// the force cutoff.

func ljBenchSystem() *atom.Arrays { return jitteredLattice(12, 1.06, 0.3, 2.8, 1) }

func eamBenchSystem() *atom.Arrays { return jitteredLattice(10, 2.28, 0.3, 5.95, 1) }

// perPair runs fn b.N times and reports the time per listed pair.
func perPair(b *testing.B, nl *neighbor.List, fn func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nl.Pairs()), "ns/pair")
}

func BenchmarkLJHalf(b *testing.B) {
	a := ljBenchSystem()
	nl := neighbor.Build(a, 2.8, neighbor.HalfShell)
	lj := NewLJ(1, 1, 2.5)
	perPair(b, nl, func() { lj.Compute(a, nl) })
}

func BenchmarkLJFull(b *testing.B) {
	a := ljBenchSystem()
	nl := neighbor.Build(a, 2.8, neighbor.Full)
	lj := NewLJ(1, 1, 2.5)
	lj.FullList = true
	perPair(b, nl, func() { lj.Compute(a, nl) })
}

// eamBench returns the EAM lattice with its half list and Fp valid for
// locals and ghosts, as the force pass finds them after the exchanges.
func eamBench(b *testing.B) (*EAM, *atom.Arrays, *neighbor.List) {
	e, err := NewEAMCu(4.95)
	if err != nil {
		b.Fatal(err)
	}
	a := eamBenchSystem()
	a.EnableEAM()
	nl := neighbor.Build(a, 5.95, neighbor.HalfShell)
	e.AccumulateRho(a, nl)
	e.FinishRho(a)
	rng := xrand.New(1)
	for g := a.NLocal; g < a.Total(); g++ {
		a.Fp[g] = a.Fp[rng.Intn(a.NLocal)]
	}
	return e, a, nl
}

func BenchmarkEAMAccumulateRho(b *testing.B) {
	e, a, nl := eamBench(b)
	perPair(b, nl, func() { e.AccumulateRho(a, nl) })
}

func BenchmarkEAMComputeForce(b *testing.B) {
	e, a, nl := eamBench(b)
	perPair(b, nl, func() { e.ComputeForce(a, nl) })
}

// BenchmarkNeighborBuild times the list builds per local atom: the
// half-shell list of the opt variant and the half-Newton list of ref.
func BenchmarkNeighborBuild(b *testing.B) {
	for _, c := range []struct {
		name string
		a    *atom.Arrays
		cut  float64
	}{
		{"lj", ljBenchSystem(), 2.8},
		{"eam", eamBenchSystem(), 5.95},
	} {
		for _, mode := range []neighbor.Mode{neighbor.HalfShell, neighbor.HalfNewton} {
			b.Run(c.name+"/"+mode.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					neighbor.Build(c.a, c.cut, mode)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.a.NLocal), "ns/atom")
			})
		}
	}
}
