// Package bench regenerates every table and figure of the paper's
// evaluation (section 4) on the simulated Fugaku substrate. Each experiment
// has a function returning structured rows plus a formatter that prints the
// same series the paper reports. Default parameters are scaled down so the
// whole suite runs in seconds; Options.Full selects the paper-sized runs.
package bench

import (
	"fmt"
	"strings"

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

// table renders rows of columns with a header.
func table(header []string, rows [][]string) string {
	w := make([]int, len(header))
	for i, h := range header {
		w[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(w) && len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", w[i], c)
		}
		sb.WriteString("\n")
	}
	line(header)
	for i := range w {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w[i]))
	}
	sb.WriteString("\n")
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

func us(t float64) string  { return fmt.Sprintf("%.2f", 1e6*t) }
func ms(t float64) string  { return fmt.Sprintf("%.3f", 1e3*t) }
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
