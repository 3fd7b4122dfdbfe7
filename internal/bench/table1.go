package bench

import (
	"fmt"

	"tofumd/internal/halo"
)

// Table1Row is one row of the communication-pattern analysis.
type Table1Row struct {
	Pattern  string
	Volume   float64
	Hops     int
	Messages int
}

// Table1Result reproduces Table 1: per-class message volumes, hop counts and
// message counts of the 3-stage and p2p patterns, plus total volumes.
type Table1Result struct {
	SubBoxSide, Cutoff        float64
	Rows                      []Table1Row
	TotalThreeStage, TotalP2P float64
	TotalMsgsThreeStage       int
	TotalMsgsP2P              int
}

// Table1 runs the analysis for the paper's exemplary geometry: the sub-box
// side a and cutoff r of the 65K/768-node configuration.
func Table1(a, r float64) Table1Result {
	rows, t3, tp := halo.AnalyzeTable1(a, r)
	res := Table1Result{SubBoxSide: a, Cutoff: r, TotalThreeStage: t3, TotalP2P: tp}
	for _, row := range rows {
		res.Rows = append(res.Rows, Table1Row{
			Pattern:  row.Pattern.String(),
			Volume:   row.Volume,
			Hops:     row.Hops,
			Messages: row.Messages,
		})
		if row.Pattern == halo.ThreeStage {
			res.TotalMsgsThreeStage += row.Messages
		} else {
			res.TotalMsgsP2P += row.Messages
		}
	}
	return res
}

// Format renders the Table 1 reproduction.
func (t Table1Result) Format() string {
	var rows [][]string
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.Pattern,
			fmt.Sprintf("%.2f", r.Volume),
			fmt.Sprintf("%d", r.Hops),
			fmt.Sprintf("%d", r.Messages),
		})
	}
	s := fmt.Sprintf("Table 1: communication pattern analysis (a=%.2f, r=%.2f)\n", t.SubBoxSide, t.Cutoff)
	s += table([]string{"pattern", "msg_volume", "hop", "msg"}, rows)
	s += fmt.Sprintf("3-stage: total volume %.2f over %d messages (8r^3+12ar^2+6a^2r)\n",
		t.TotalThreeStage, t.TotalMsgsThreeStage)
	s += fmt.Sprintf("p2p:     total volume %.2f over %d messages (4r^3+6ar^2+3a^2r)\n",
		t.TotalP2P, t.TotalMsgsP2P)
	return s
}
