package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json, the driver's view of this
// program.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQuickRunEmitsExactlyTheNamedMetrics runs every workload at smoke size,
// traced pass and probes included, and holds the program to BENCHMARK.json
// in both directions so names cannot drift.
func TestQuickRunEmitsExactlyTheNamedMetrics(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	out := t.TempDir()
	rep, err := runAll(options{workload: "all", seed: 1, seconds: 1, trace: true, quick: true, outDir: out})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.write(out); err != nil {
		t.Fatal(err)
	}

	// Workloads: same names, same order, same reasons.
	if len(rep.Workloads) != len(spec.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json names %d", len(rep.Workloads), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		if got := rep.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d is %q (%q), BENCHMARK.json says %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
	}

	// Every named metric agrees with defs.go on unit, direction and bound.
	named := map[string]bool{}
	for _, list := range [][]jsonMetric{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			named[m.Name] = true
			d, ok := findDef(m.Name)
			if !ok {
				t.Errorf("BENCHMARK.json names %s, which defs.go does not define", m.Name)
				continue
			}
			if d.Unit != m.Unit || d.Better != m.Better {
				t.Errorf("%s: BENCHMARK.json says %s/%s, defs.go %s/%s", m.Name, m.Unit, m.Better, d.Unit, d.Better)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if d, _ := findDef(m.Name); d.Bound != m.Bound {
			t.Errorf("%s: BENCHMARK.json bound %v, defs.go %v", m.Name, m.Bound, d.Bound)
		}
	}
	// fail_frac and virt_drift must stay 0, and the driver takes no metric
	// that is ever 0: they travel as failed/attempted and correct instead.
	// op_ms_p90 exists on one workload only and stays in the report.
	viaResultLine := map[string]bool{"fail_frac": true, "virt_drift": true, "op_ms_p90": true}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !named[d.Name] && !viaResultLine[d.Name] {
			t.Errorf("defs.go defines %s, which BENCHMARK.json does not name", d.Name)
		}
	}

	// Every workload emits every driver end-to-end metric, non-zero; every
	// per-layer name is emitted somewhere or omitted with a reason; nothing
	// unnamed is emitted at all.
	seen := map[string]bool{}
	for _, wr := range rep.Workloads {
		if !wr.Correct || wr.Failed != 0 || wr.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", wr.Name, wr.Correct, wr.Attempted, wr.Failed, wr.Errors)
		}
		for _, m := range spec.EndToEnd {
			if v, ok := wr.Metrics[m.Name]; !ok || !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want > 0", wr.Name, m.Name, v.Value, ok)
			}
		}
		for name := range wr.Metrics {
			seen[name] = true
			if !named[name] && !viaResultLine[name] {
				t.Errorf("%s emits %s, which BENCHMARK.json does not name", wr.Name, name)
			}
		}
		for name := range wr.Omitted {
			seen[name] = true
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			line := wr.driverLine(traced)
			var got, names []string
			for n := range line.Metrics {
				got = append(got, n)
			}
			for _, m := range want {
				names = append(names, m.Name)
			}
			sort.Strings(got)
			sort.Strings(names)
			if len(got) != len(names) {
				t.Fatalf("%s trace=%v: result line has %d metrics, BENCHMARK.json %d", wr.Name, traced, len(got), len(names))
			}
			for i := range got {
				if got[i] != names[i] {
					t.Errorf("%s trace=%v: result line has %s where BENCHMARK.json has %s", wr.Name, traced, got[i], names[i])
				}
			}
		}
	}
	for name := range named {
		if !seen[name] {
			t.Errorf("no workload emitted %s", name)
		}
	}

	// The traced pass left a loadable trace whose ops are covered.
	data, err := os.ReadFile(filepath.Join(out, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("trace.json: %d events, err %v", len(trace.TraceEvents), err)
	}
	// The bar for a real run is 0.98; smoke ops last milliseconds, where one
	// scheduler hiccup between two spans is a visible share.
	for w, c := range opCoverage(rep.spans) {
		if c < 0.9 {
			t.Errorf("%s: child spans cover %.4f of an op span, want >= 0.9", w, c)
		}
	}
}
