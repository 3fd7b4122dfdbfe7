package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Delta is one aligned series pair.
type Delta struct {
	Experiment, Key, Direction string
	Base, Cand                 float64
	// Rel is (cand-base)/|base|: 0 when the values are equal, infinite when
	// only the baseline is zero.
	Rel float64
	// Moved marks a directed series whose value differs at all. Info series
	// (no direction) never move.
	Moved bool
}

// Comparison is the outcome of aligning a baseline against a candidate.
type Comparison struct {
	Deltas []Delta
	// Moved is the subset of Deltas that moved, in experiment order.
	Moved []Delta
	// Errors are schema/shape mismatches: missing experiments or series,
	// direction flips.
	Errors []string
}

// Compare aligns candidate artifacts against baseline artifacts by
// experiment + series key and reports every pair. Every artifact holds
// deterministic virtual-time series, so the contract is equality: a directed
// series moves when its value changes at all, in either direction.
func Compare(base, cand map[string]*Artifact) *Comparison {
	res := &Comparison{}
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
			if d.Cand != d.Base {
				if d.Base == 0 {
					d.Rel = math.Copysign(math.Inf(1), d.Cand)
				} else {
					d.Rel = (d.Cand - d.Base) / math.Abs(d.Base)
				}
				d.Moved = d.Direction != ""
			}
			res.Deltas = append(res.Deltas, d)
			if d.Moved {
				res.Moved = append(res.Moved, d)
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

// FormatTable renders the aligned deltas, flagging the moved series, and
// ends with the first series that moved.
func (r *Comparison) FormatTable() string {
	var rows [][]string
	for _, d := range r.Deltas {
		flag := ""
		if d.Moved {
			flag = "MOVED"
		}
		rows = append(rows, []string{
			d.Experiment, d.Key, orInfo(d.Direction),
			fmt.Sprintf("%.6g", d.Base), fmt.Sprintf("%.6g", d.Cand),
			fmt.Sprintf("%+.3g%%", 100*d.Rel), flag,
		})
	}
	var sb strings.Builder
	sb.WriteString(table([]string{"experiment", "series", "dir", "baseline", "candidate", "delta", ""}, rows))
	fmt.Fprintf(&sb, "\n%d series compared, %d moved, %d errors\n",
		len(r.Deltas), len(r.Moved), len(r.Errors))
	for _, e := range r.Errors {
		sb.WriteString("ERROR: " + e + "\n")
	}
	if len(r.Moved) > 0 {
		fmt.Fprintf(&sb, "first moved: %s/%s\n", r.Moved[0].Experiment, r.Moved[0].Key)
	}
	return sb.String()
}

func orInfo(dir string) string {
	if dir == "" {
		return "info"
	}
	return dir
}
