package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// DefaultTolerances is the per-experiment relative tolerance of the
// regression gate. Experiments built on the closed-form analysis (table1)
// must not move at all; virtual-time experiments are deterministic too, but
// get generous headroom so intentional model recalibrations only trip the
// gate when they change results materially.
var DefaultTolerances = map[string]float64{
	"table1":    0,
	"fig6":      0.25,
	"fig8":      0.25,
	"fig11":     0.50,
	"fig12":     0.25,
	"fig13":     0.25,
	"table3":    0.30,
	"fig14":     0.25,
	"fig15":     0.25,
	"ablations": 0.35,
	"faults":    0.50,
	"failstop":  0.50,
	"lbm":       0.25,
}

// compareAbsFloor is the magnitude below which two values are considered
// equal regardless of their ratio (tiny-vs-tiny noise, exact zeros).
const compareAbsFloor = 1e-12

// Delta is one aligned series pair.
type Delta struct {
	Experiment, Key, Direction string
	Base, Cand                 float64
	// Rel is (cand-base)/|base|, 0 when both sides sit under the floor.
	Rel float64
	// Regressed marks deltas beyond the experiment's tolerance in the bad
	// direction.
	Regressed bool
}

// CompareResult is the outcome of aligning a baseline against a candidate.
type CompareResult struct {
	Deltas []Delta
	// Regressions is the subset of Deltas that regressed.
	Regressions []Delta
	// Errors are schema/shape mismatches: missing experiments or series,
	// direction flips. These are always fatal, never softened.
	Errors []string
}

// Compare aligns candidate artifacts against baseline artifacts by
// experiment + series key and classifies every pair. tol overrides
// DefaultTolerances per experiment (nil uses the defaults; experiments in
// neither map get 0.25).
func Compare(base, cand map[string]*Artifact, tol map[string]float64) *CompareResult {
	res := &CompareResult{}
	tolFor := func(exp string) float64 {
		if tol != nil {
			if t, ok := tol[exp]; ok {
				return t
			}
		}
		if t, ok := DefaultTolerances[exp]; ok {
			return t
		}
		return 0.25
	}

	exps := make([]string, 0, len(base))
	for e := range base {
		exps = append(exps, e)
	}
	sort.Strings(exps)
	for _, e := range exps {
		b := base[e]
		c := cand[e]
		if c == nil {
			res.Errors = append(res.Errors, fmt.Sprintf("experiment %q: in baseline but missing from candidate", e))
			continue
		}
		cSeries := map[string]Series{}
		for _, s := range c.Series {
			if _, dup := cSeries[s.Key]; dup {
				res.Errors = append(res.Errors, fmt.Sprintf("%s/%s: duplicate series key in candidate", e, s.Key))
				continue
			}
			cSeries[s.Key] = s
		}
		t := tolFor(e)
		bSeen := map[string]bool{}
		for _, bs := range b.Series {
			if bSeen[bs.Key] {
				res.Errors = append(res.Errors, fmt.Sprintf("%s/%s: duplicate series key in baseline", e, bs.Key))
				continue
			}
			bSeen[bs.Key] = true
			cs, ok := cSeries[bs.Key]
			if !ok {
				res.Errors = append(res.Errors, fmt.Sprintf("%s/%s: series missing from candidate", e, bs.Key))
				continue
			}
			delete(cSeries, bs.Key)
			if cs.Direction != bs.Direction {
				res.Errors = append(res.Errors, fmt.Sprintf("%s/%s: direction %q in baseline, %q in candidate",
					e, bs.Key, bs.Direction, cs.Direction))
				continue
			}
			d := Delta{Experiment: e, Key: bs.Key, Direction: bs.Direction, Base: bs.Value, Cand: cs.Value}
			if math.Abs(d.Base) >= compareAbsFloor || math.Abs(d.Cand) >= compareAbsFloor {
				if math.Abs(d.Base) < compareAbsFloor {
					// Base is zero, candidate is not: infinite relative
					// change; signal with the sign of the move.
					d.Rel = math.Copysign(math.Inf(1), d.Cand)
				} else {
					d.Rel = (d.Cand - d.Base) / math.Abs(d.Base)
				}
			}
			switch d.Direction {
			case DirLower:
				d.Regressed = d.Rel > t
			case DirHigher:
				d.Regressed = d.Rel < -t
			case DirEqual:
				d.Regressed = math.Abs(d.Rel) > t
			}
			res.Deltas = append(res.Deltas, d)
			if d.Regressed {
				res.Regressions = append(res.Regressions, d)
			}
		}
		leftover := make([]string, 0, len(cSeries))
		for k := range cSeries {
			leftover = append(leftover, k)
		}
		sort.Strings(leftover)
		for _, k := range leftover {
			res.Errors = append(res.Errors, fmt.Sprintf("%s/%s: series in candidate but not in baseline", e, k))
		}
	}
	cexps := make([]string, 0, len(cand))
	for e := range cand {
		cexps = append(cexps, e)
	}
	sort.Strings(cexps)
	for _, e := range cexps {
		if base[e] == nil {
			res.Errors = append(res.Errors, fmt.Sprintf("experiment %q: in candidate but not in baseline", e))
		}
	}
	return res
}

// FormatTable renders the aligned deltas, flagging regressions.
func (r *CompareResult) FormatTable() string {
	var rows [][]string
	for _, d := range r.Deltas {
		flag := ""
		if d.Regressed {
			flag = "REGRESSED"
		}
		rows = append(rows, []string{
			d.Experiment, d.Key, orInfo(d.Direction),
			fmt.Sprintf("%.6g", d.Base), fmt.Sprintf("%.6g", d.Cand),
			fmt.Sprintf("%+.2f%%", 100*d.Rel), flag,
		})
	}
	var sb strings.Builder
	sb.WriteString(table([]string{"experiment", "series", "dir", "baseline", "candidate", "delta", ""}, rows))
	fmt.Fprintf(&sb, "\n%d series compared, %d regressions, %d errors\n",
		len(r.Deltas), len(r.Regressions), len(r.Errors))
	for _, e := range r.Errors {
		sb.WriteString("ERROR: " + e + "\n")
	}
	return sb.String()
}

func orInfo(dir string) string {
	if dir == "" {
		return "info"
	}
	return dir
}
