package main

import (
	"fmt"
	"io"
	"sort"
)

// value is one reported number. Min and Max are the per-repeat spread of
// the metrics that are medians of repeats.
type value struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Min   *float64 `json:"min,omitempty"`
	Max   *float64 `json:"max,omitempty"`
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Ops is the number of timed ops that passed their sanity check, pooled
	// over the repeats: the sample count behind the percentiles.
	Ops       int      `json:"ops"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Errors    []string `json:"errors,omitempty"`
	// Fingerprint hashes the virtual-clock results of the fixed ops. A
	// change that only makes the simulator faster leaves it unchanged.
	Fingerprint string            `json:"fingerprint"`
	Metrics     map[string]value  `json:"metrics"`
	Omitted     map[string]string `json:"omitted,omitempty"`
}

func unitOf(name string) string {
	d, ok := findDef(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in defs.go")
	}
	return d.Unit
}

func (wr *workloadResult) set(name string, v float64) {
	wr.Metrics[name] = value{Value: v, Unit: unitOf(name)}
}

func (wr *workloadResult) setSpread(name string, sp spread) {
	wr.Metrics[name] = value{Value: sp.med, Unit: unitOf(name), Min: &sp.min, Max: &sp.max}
}

// report is one run of the benchmark.
type report struct {
	Host      hostInfo          `json:"host"`
	Seed      int               `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Quick     bool              `json:"quick"`
	Traced    bool              `json:"traced"`
	Workloads []*workloadResult `json:"workloads"`

	spans []span
}

// print writes one "workload metric value unit" line per number, the host
// fingerprint, and after a traced pass the self-time table.
func (rep *report) print(w io.Writer) {
	h := rep.Host
	fmt.Fprintf(w, "host num_cpu=%d gomaxprocs=%d go=%s os=%s arch=%s seed=%d seconds=%g quick=%v\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.OS, h.Arch, rep.Seed, rep.Seconds, rep.Quick)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "%s fingerprint %s ops=%d attempted=%d failed=%d correct=%v\n",
			wr.Name, wr.Fingerprint, wr.Ops, wr.Attempted, wr.Failed, wr.Correct)
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "%s error %s\n", wr.Name, e)
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				v, ok := wr.Metrics[d.Name]
				if !ok {
					continue
				}
				fmt.Fprintf(w, "%s %s %.6g %s", wr.Name, d.Name, v.Value, v.Unit)
				if v.Min != nil {
					fmt.Fprintf(w, " (repeats %.6g..%.6g)", *v.Min, *v.Max)
				}
				fmt.Fprintln(w)
			}
		}
		for _, name := range sortedKeys(wr.Omitted) {
			fmt.Fprintf(w, "%s %s omitted: %s\n", wr.Name, name, wr.Omitted[name])
		}
	}
	if rep.spans == nil {
		return
	}
	cov := opCoverage(rep.spans)
	for _, name := range sortedKeys(cov) {
		fmt.Fprintf(w, "%s trace.op_coverage_min %.4f frac\n", name, cov[name])
	}
	fmt.Fprintln(w, "self time per span name (traced pass; self = span minus its children):")
	fmt.Fprintf(w, "  %-12s %-36s %8s %12s %12s\n", "workload", "span", "count", "total_ms", "self_ms")
	for _, r := range selfTimes(rep.spans) {
		fmt.Fprintf(w, "  %-12s %-36s %8d %12.3f %12.3f\n", r.Workload, r.Name, r.Count, r.TotalMS, r.SelfMS)
	}
}

// driverResult is the one-line result the driver reads.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine selects what BENCHMARK.json promises the driver: the shared
// end-to-end metrics without tracing, every per-layer metric with it. The
// driver wants every listed name on every workload, so a per-layer metric a
// workload does not have is sent as 0; the report itself leaves it out.
func (wr *workloadResult) driverLine(traced bool) driverResult {
	names := driverEndToEnd
	if traced {
		names = driverPerLayerNames()
	}
	out := driverResult{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]driverValue{}}
	for _, n := range names {
		out.Metrics[n] = driverValue{Value: wr.Metrics[n].Value, Unit: unitOf(n)}
	}
	return out
}

func driverPerLayerNames() []string {
	names := append([]string(nil), driverPerLayerExtra...)
	for _, d := range perLayer {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}
