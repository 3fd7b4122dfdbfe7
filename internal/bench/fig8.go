package bench

import (
	"fmt"

	"tofumd/internal/faultinject"
	"tofumd/internal/md/sim"
	"tofumd/internal/tofu"
	"tofumd/internal/vec"
)

// Fig8Row is one message-size point of Fig. 8.
type Fig8Row struct {
	Bytes int
	// Rates are messages/second for one node under the three injection
	// schemes: a single thread per rank over 4 TNIs, a single thread per
	// rank spraying 6 TNIs, and 6 threads per rank on 6 TNIs.
	Rate4TNI, Rate6TNI, RateParallel float64
	// Bandwidth is the parallel scheme's payload throughput (bytes/s).
	Bandwidth float64
}

// Fig8Result reproduces Fig. 8: message rate and bandwidth of one node vs
// message size.
type Fig8Result struct {
	Rows []Fig8Row
	// BoostBytes is the largest size at which parallel injection boosts
	// the message rate by at least 50% over the single-thread 4-TNI scheme.
	BoostBytes int
}

// Fig8 runs the injection microbenchmark.
func Fig8(opt Options) (Fig8Result, error) {
	m, err := sim.NewMachine(vec.I3{X: 2, Y: 2, Z: 2})
	if err != nil {
		return Fig8Result{}, err
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
	sizes := []int{8, 32, 128, 512, 2048, 8192, 32768, 131072, 1 << 20}
	var res Fig8Result
	totalMsgs := float64(len(senders) * perRank)
	for _, b := range sizes {
		t4, err := run(b, "4tni")
		if err != nil {
			return Fig8Result{}, err
		}
		t6, err := run(b, "6tni")
		if err != nil {
			return Fig8Result{}, err
		}
		tp, err := run(b, "parallel")
		if err != nil {
			return Fig8Result{}, err
		}
		row := Fig8Row{
			Bytes:        b,
			Rate4TNI:     totalMsgs / t4,
			Rate6TNI:     totalMsgs / t6,
			RateParallel: totalMsgs / tp,
			Bandwidth:    totalMsgs * float64(b) / tp,
		}
		res.Rows = append(res.Rows, row)
		if row.RateParallel >= 1.5*row.Rate4TNI {
			res.BoostBytes = b
		}
	}
	return res, nil
}

// Format renders the Fig. 8 reproduction.
func (f Fig8Result) Format() string {
	var rows [][]string
	for _, r := range f.Rows {
		rows = append(rows, []string{
			byteLabel(r.Bytes),
			rate(r.Rate4TNI), rate(r.Rate6TNI), rate(r.RateParallel),
			gbs(r.Bandwidth),
		})
	}
	s := "Fig. 8: one-node message rate (Mmsg/s) and bandwidth vs size\n"
	return s + table([]string{"size", "single-4TNI", "single-6TNI", "parallel", "BW(par)"}, rows)
}

func rate(r float64) string { return fmt.Sprintf("%.3f Mmsg/s", r/1e6) }

func gbs(b float64) string { return fmt.Sprintf("%.3f GB/s", b/1e9) }

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
