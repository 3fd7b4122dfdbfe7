// Package bench regenerates every table and figure of the paper's
// evaluation (section 4) on the simulated Fugaku substrate. Each experiment
// is a function that builds its *Artifact as it computes: the series the
// paper reports, with units and directions. Experiments lists them in run
// order, Format prints any artifact, Targets holds the paper's numbers and
// orderings over the series, and the BENCH_*.json files are the artifacts
// themselves. Default parameters are scaled down so the whole suite runs in
// seconds; Options.Full selects the paper-sized runs.
package bench

import (
	"tofumd/internal/faultinject"
	"tofumd/internal/metrics"
	"tofumd/internal/trace"
	"tofumd/internal/vec"
)

// Options tunes experiment sizes.
type Options struct {
	// Full runs paper-scale parameters (768-node functional tiles, larger
	// Fig. 13/14 model tiles, 99-step Fig. 12, 50K-step accuracy traces).
	// Default is a scaled-down configuration preserving per-rank loads.
	Full bool
	// Steps overrides the default step count when non-zero.
	Steps int
	// Rec, when non-nil, collects fabric events from the experiments that
	// run fabric rounds: Fig. 8's raw-fabric microbenchmark and the modeled
	// halo rounds of Figs. 6 and 12, each modeled round starting at time 0.
	Rec *trace.Recorder
	// Met, when non-nil, aggregates fabric metrics from the same experiments.
	Met *metrics.Registry
	// Faults, when enabled, injects deterministic transport faults into the
	// raw-fabric microbenchmarks (Fig. 8). The "faults" chaos experiment
	// sweeps its own rates and ignores this field.
	Faults faultinject.Spec
}

// tileFor returns the functional tile for experiments pinned at 768 nodes.
func (o Options) tileFor() vec.I3 {
	if o.Full {
		return vec.I3{X: 8, Y: 12, Z: 8} // the real 768-node allocation
	}
	return vec.I3{X: 4, Y: 6, Z: 4} // 96 nodes, 384 ranks
}

func (o Options) steps(def int) int {
	if o.Steps > 0 {
		return o.Steps
	}
	return def
}

// Experiment is one entry of the suite: the artifacts its run returns, in
// order, and the run.
type Experiment struct {
	Names []string
	Run   func(Options) ([]*Artifact, error)
}

// Experiments is the suite in its canonical run order. Its names are the
// ones benchsuite's -experiment flag accepts; Fig. 13's run also yields
// Table 3, the breakdown at its last point.
var Experiments = []Experiment{
	{[]string{"table1"}, one(Table1)},
	{[]string{"fig6"}, one(Fig6)},
	{[]string{"fig8"}, one(Fig8)},
	{[]string{"fig11"}, one(Fig11)},
	{[]string{"fig12"}, one(Fig12)},
	{[]string{"fig13", "table3"}, func(o Options) ([]*Artifact, error) {
		f, t, err := Fig13(o)
		return []*Artifact{f, t}, err
	}},
	{[]string{"fig14"}, one(Fig14)},
	{[]string{"fig15"}, one(Fig15)},
	{[]string{"ablations"}, one(Ablations)},
	{[]string{"faults"}, one(Faults)},
	{[]string{"failstop"}, one(Failstop)},
	{[]string{"lbm"}, one(Lbm)},
}

// one adapts a single-artifact experiment to the table's run signature.
func one(run func(Options) (*Artifact, error)) func(Options) ([]*Artifact, error) {
	return func(o Options) ([]*Artifact, error) {
		a, err := run(o)
		return []*Artifact{a}, err
	}
}
