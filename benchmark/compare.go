package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// verdict judges one end-to-end metric of a candidate (b) against a
// baseline (a) by the benchmark's own bound:
//
//	unresolved  the repeats of either side disagree by more than the bound,
//	            so a change of that size cannot be told from noise
//	worse       b is worse than a by more than the bound
//	same        anything else, improvements included
//
// Exact end-to-end metrics (fail_frac, paper_err, virt_drift) have no
// bound: any move in the worse direction is "worse".
func verdict(d metricDef, a, b value) string {
	worse := b.Value - a.Value
	if d.Better == "higher" {
		worse = -worse
	}
	if d.Exact {
		if worse > 0 {
			return "worse"
		}
		return "same"
	}
	if relSpread(a) > d.Bound || relSpread(b) > d.Bound {
		return "unresolved"
	}
	if worse > d.Bound*math.Abs(a.Value) {
		return "worse"
	}
	return "same"
}

func relSpread(v value) float64 {
	if v.Min == nil || v.Max == nil || v.Value == 0 {
		return 0
	}
	return (*v.Max - *v.Min) / math.Abs(v.Value)
}

// compareFiles prints the A/A (or A/B) table and reports whether b is free
// of regressions against a.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	switch {
	case a.Quick || b.Quick:
		return false, fmt.Errorf("-quick results are never comparable")
	case a.Seed != b.Seed || a.Seconds != b.Seconds:
		return false, fmt.Errorf("runs differ in inputs: seed %d vs %d, seconds %g vs %g", a.Seed, b.Seed, a.Seconds, b.Seconds)
	case a.Host != b.Host:
		return false, fmt.Errorf("runs come from different hosts (%+v vs %+v): they do not share a baseline", a.Host, b.Host)
	}
	byName := map[string]*workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	ok := true
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Fprintf(w, "%s missing from %s\n", wa.Name, pathB)
			ok = false
			continue
		}
		fp := "same"
		if wa.Fingerprint != wb.Fingerprint {
			fp, ok = "differs", false
		}
		fmt.Fprintf(w, "%-12s %-32s %s (%s vs %s)\n", wa.Name, "fingerprint", fp, wa.Fingerprint, wb.Fingerprint)
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				va, okA := wa.Metrics[d.Name]
				vb, okB := wb.Metrics[d.Name]
				if !okA && !okB {
					continue
				}
				if okA != okB {
					fmt.Fprintf(w, "%-12s %-32s present on one side only\n", wa.Name, d.Name)
					ok = false
					continue
				}
				line := fmt.Sprintf("%-12s %-32s %12.6g -> %-12.6g %-6s", wa.Name, d.Name, va.Value, vb.Value, d.Unit)
				switch {
				case isEndToEnd(d.Name):
					v := verdict(d, va, vb)
					fmt.Fprintln(w, line, v)
					if v == "worse" {
						ok = false
					}
				case d.Exact:
					// A per-layer count is a property of the inputs: it
					// must repeat, in either direction.
					if va.Value != vb.Value {
						fmt.Fprintln(w, line, "differs")
						ok = false
					} else {
						fmt.Fprintln(w, line, "same")
					}
				default:
					// Per-layer timings carry no bound; show the ratio.
					fmt.Fprintf(w, "%s x%.3f\n", line, vb.Value/va.Value)
				}
			}
		}
	}
	return ok, nil
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.Name == name {
			return true
		}
	}
	return false
}
