package bench

import (
	"fmt"

	"tofumd/internal/halo"
)

// Table1 reproduces Table 1: per-class message volumes of the 3-stage and
// p2p patterns, plus their total volumes and message counts, for the
// paper's exemplary geometry: the 65K/768-node configuration's cubic sub-box
// side 2.94 and ghost cutoff 2.8 (Table 2). The analysis is closed-form, so
// every series must match exactly across runs.
func Table1(opt Options) (*Artifact, error) {
	const side, cutoff = 2.94, 2.8
	rows, t3, tp := halo.AnalyzeTable1(side, cutoff)
	var msgs3, msgsP2P int
	for _, r := range rows {
		if r.Pattern == halo.ThreeStage {
			msgs3 += r.Messages
		} else {
			msgsP2P += r.Messages
		}
	}
	a := NewArtifact("table1", opt)
	a.Params["sub_box_side"] = side
	a.Params["cutoff"] = cutoff
	a.Add("total_volume/3stage", "volume", t3, DirEqual)
	a.Add("total_volume/p2p", "volume", tp, DirEqual)
	a.Add("total_msgs/3stage", "msgs", float64(msgs3), DirEqual)
	a.Add("total_msgs/p2p", "msgs", float64(msgsP2P), DirEqual)
	// Rows can repeat a (pattern, hops) pair across message classes, so the
	// key carries the row's index within its pattern.
	idx := map[string]int{}
	for _, r := range rows {
		p := r.Pattern.String()
		a.Add(key("volume", p, fmt.Sprintf("row%d_hop%d", idx[p], r.Hops)), "volume", r.Volume, DirEqual)
		idx[p]++
	}
	return a, nil
}
