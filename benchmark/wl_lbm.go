package main

import (
	"fmt"
	"math"

	"tofumd/internal/halo"
	"tofumd/internal/lbm"
	"tofumd/internal/md/sim"
	"tofumd/internal/vec"
)

// lbmShape sizes the lattice-Boltzmann workload.
type lbmShape struct {
	tile       vec.I3
	perRank    int // cells per rank along each axis
	stepsPerOp int
}

// lbmInst steps a D3Q19 shear wave: the halo stack's other consumer, six
// large exact-size face planes per rank over uTofu, blocking.
type lbmInst struct {
	shape    lbmShape
	fixedOps int
	sys      *lbm.System
	cells    int
	mass0    float64
	prevSec  float64
}

func buildLBM(shape lbmShape) func(e *env, w *workload) (instance, error) {
	return func(e *env, w *workload) (instance, error) {
		m, err := sim.NewMachine(shape.tile)
		if err != nil {
			return nil, err
		}
		cells := vec.I3{X: m.Map.Grid.X * shape.perRank, Y: m.Map.Grid.Y * shape.perRank, Z: m.Map.Grid.Z * shape.perRank}
		sp := e.root.child("lbm.New")
		sys, err := lbm.New(m.Map, m.Params, m.Cost, lbm.Config{Cells: cells, Tau: 0.8, Transport: halo.TransportUTofu})
		sp.finish()
		if err != nil {
			return nil, err
		}
		sys.InitShearWave(0.01)
		return &lbmInst{shape: shape, fixedOps: w.fixedOps, sys: sys, cells: cells.Prod(), mass0: sys.Mass()}, nil
	}
}

func (l *lbmInst) run(_, _ int, op *span) {
	for s := 0; s < l.shape.stepsPerOp; s++ {
		sp := op.child("lbm.Step")
		l.sys.Step()
		sp.finish()
	}
}

func (l *lbmInst) check(_, i int) (opVirt, error) {
	now := l.sys.ElapsedMax()
	mass := l.sys.Mass()
	v := opVirt{sec: now - l.prevSec, hash: math.Float64bits(mass)}
	l.prevSec = now
	if i < l.fixedOps {
		// Folding every distribution value costs ms; only the fixed ops
		// enter the fingerprint.
		v.hash ^= l.sys.Fingerprint()
	}
	if drift := math.Abs(mass-l.mass0) / l.mass0; !(drift < 1e-10) {
		return v, fmt.Errorf("mass drifted by %g of %g", drift, l.mass0)
	}
	return v, nil
}

func (l *lbmInst) close() {}

// probe derives the lattice update rate from the untraced op time; lbm has
// no kernel of its own exported to time from outside.
func (l *lbmInst) probe(p *probeCtx) {
	p.set("lbm.mcell_updates_per_s", float64(l.cells*l.shape.stepsPerOp)/(p.opP50ms/1e3)/1e6)
	p.set("lbm.new_ms", p.setupMS)
}
