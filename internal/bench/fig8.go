package bench

import (
	"fmt"

	"tofumd/internal/faultinject"
	"tofumd/internal/md/sim"
	"tofumd/internal/tofu"
	"tofumd/internal/vec"
)

// Fig8 reproduces Fig. 8: one node's message rate (messages/second) vs
// message size under three injection schemes — a single thread per rank over
// 4 TNIs, a single thread per rank spraying 6 TNIs, and 6 threads per rank on
// 6 TNIs — with the parallel scheme's payload bandwidth (bytes/s), and the
// largest size at which parallel injection boosts the rate by at least 50%
// over the single-thread 4-TNI scheme. A run with Options.Faults enabled
// records the spec as the "faults" parameter.
func Fig8(opt Options) (*Artifact, error) {
	m, err := sim.NewMachine(vec.I3{X: 2, Y: 2, Z: 2})
	if err != nil {
		return nil, err
	}
	fab := tofu.NewFabric(m.Map, m.Params)
	fab.Rec = opt.Rec
	fab.SetMetrics(opt.Met)
	fab.Faults = faultinject.New(opt.Faults) // nil (disabled) unless requested
	// The four ranks of node 0 and their +x off-node peers.
	var senders, peers []int
	for id := 0; id < m.Map.Ranks(); id++ {
		if n, _ := m.Map.NodeOf(id); n == 0 {
			senders = append(senders, id)
			peers = append(peers, m.Map.NeighborRank(id, vec.I3{X: 2, Y: 0, Z: 0}))
		}
	}
	const perRank = 48
	run := func(bytes int, mode string) (float64, error) {
		var trs []*tofu.Transfer
		for si, src := range senders {
			_, slot := m.Map.NodeOf(src)
			for k := 0; k < perRank; k++ {
				tr := &tofu.Transfer{Src: src, Dst: peers[si], Bytes: bytes}
				switch mode {
				case "4tni":
					tr.Thread, tr.TNI, tr.VCQ = 0, slot%4, src<<3
				case "6tni":
					tr.Thread, tr.TNI = 0, k%6
					tr.VCQ = src<<3 | k%6
				default: // parallel
					tr.Thread, tr.TNI = k%6, k%6
					tr.VCQ = src<<3 | k%6
				}
				trs = append(trs, tr)
			}
		}
		if err := fab.RunRound(trs, tofu.IfaceUTofu); err != nil {
			return 0, err
		}
		var last float64
		for _, tr := range trs {
			if tr.Arrival > last {
				last = tr.Arrival
			}
		}
		return last, nil
	}
	a := NewArtifact("fig8", opt)
	if opt.Faults.Enabled() {
		a.Params["faults"] = opt.Faults.String()
	}
	var boost int
	totalMsgs := float64(len(senders) * perRank)
	for _, b := range []int{8, 32, 128, 512, 2048, 8192, 32768, 131072, 1 << 20} {
		t4, err := run(b, "4tni")
		if err != nil {
			return nil, err
		}
		t6, err := run(b, "6tni")
		if err != nil {
			return nil, err
		}
		tp, err := run(b, "parallel")
		if err != nil {
			return nil, err
		}
		rate4, rateP := totalMsgs/t4, totalMsgs/tp
		sz := byteLabel(b)
		a.Add(key("rate_4tni", sz), "msg/s", rate4, DirHigher)
		a.Add(key("rate_6tni", sz), "msg/s", totalMsgs/t6, DirHigher)
		a.Add(key("rate_parallel", sz), "msg/s", rateP, DirHigher)
		a.Add(key("bandwidth", sz), "B/s", totalMsgs*float64(b)/tp, DirHigher)
		if rateP >= 1.5*rate4 {
			boost = b
		}
	}
	a.Add("boost_bytes", "B", float64(boost), DirEqual)
	return a, nil
}

func byteLabel(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1024:
		return fmt.Sprintf("%dKB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
