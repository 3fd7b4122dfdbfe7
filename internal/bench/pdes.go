package bench

import (
	"fmt"
	"runtime"
	"time"

	"tofumd/internal/md/sim"
	"tofumd/internal/obs"
	"tofumd/internal/tofu"
	"tofumd/internal/trace"
	"tofumd/internal/vec"
)

// PdesResult measures the wall-clock speedup of the event engine's N-LP
// barrier-epoch loop over its one-LP serial loop on a raw fabric round.
// Unlike every other experiment, the headline series here is host wall time,
// not virtual time: sharding exists to make the simulator itself faster, and
// its correctness contract (bit-identical virtual results) is checked as a
// side condition.
type PdesResult struct {
	Nodes, Ranks int
	// Transfers is the size of the measured round.
	Transfers int
	// LPs is the logical-process count of the sharded rounds, as the fabric
	// reports it after clamping to the node count.
	LPs int
	// HostCPUs is runtime.NumCPU() on the measuring host; a speedup below
	// 1 on a single-core host is expected (the epoch barrier only costs).
	HostCPUs int
	// SerialWall and ParallelWall are the minimum wall-clock seconds over
	// the repetitions for one round on one LP and on LPs.
	SerialWall, ParallelWall float64
	// Speedup is SerialWall/ParallelWall.
	Speedup float64
	// VirtualTime is the latest Arrival of the round, identical at both LP
	// counts by the determinism contract.
	VirtualTime float64
	// Identical reports whether every per-transfer timing (IssueDone,
	// Arrival, RecvComplete) matched bit-for-bit between the LP counts —
	// including the extra profiled round, which must not perturb results.
	Identical bool

	// The scaling-diagnosis series, measured on one extra profiled round.
	// ImbalanceMax is max/mean events across LPs (1 = perfectly balanced);
	// BarrierWaitFrac the fraction of the LPs' aggregate wall time spent in
	// the epoch barrier; CritPathFrac the critical path's share of total
	// virtual work (the Amdahl-style serial fraction of the round).
	ImbalanceMax, BarrierWaitFrac, CritPathFrac float64
	// ExplainReport carries the rendered per-LP profile and critical path
	// when Options.Explain is set.
	ExplainReport string
}

// pdesLPs is the default logical-process count when Options.Par is unset.
const pdesLPs = 4

// pdesTransfers builds one halo-like round on the tile: every rank sends a
// small message to each of its six axis neighbors, spread over the six TNIs
// like the paper's parallel injection scheme. Fresh transfers are built per
// run because RunRound writes the timing results into the Transfer structs.
func pdesTransfers(m *sim.Machine, bytes int) []*tofu.Transfer {
	// Rank-grid offsets that cross a node boundary: the default node block
	// is 2x2x1 ranks, so +-2 in x/y and +-1 in z land on a neighbor node.
	dirs := []vec.I3{
		{X: 2}, {X: -2}, {Y: 2}, {Y: -2}, {Z: 1}, {Z: -1},
	}
	trs := make([]*tofu.Transfer, 0, m.Map.Ranks()*len(dirs))
	for src := 0; src < m.Map.Ranks(); src++ {
		for di, d := range dirs {
			trs = append(trs, &tofu.Transfer{
				Src: src, Dst: m.Map.NeighborRank(src, d), Bytes: bytes,
				Thread: di, TNI: di, VCQ: src<<3 | di,
			})
		}
	}
	return trs
}

// Pdes runs the engine-speedup benchmark: the same raw-fabric round executed
// on one LP and on several, timed on the host clock.
func Pdes(opt Options) (PdesResult, error) {
	m, err := sim.NewMachine(opt.tileFor())
	if err != nil {
		return PdesResult{}, err
	}
	lps := opt.Par
	if lps <= 0 {
		lps = pdesLPs
	}
	const bytes = 256 // the sub-512B strong-scaling regime
	reps := 3
	if opt.Full {
		reps = 5
	}
	res := PdesResult{
		Nodes:     m.Map.Ranks() / m.Map.RanksPerNode(),
		Ranks:     m.Map.Ranks(),
		HostCPUs:  runtime.NumCPU(),
		Identical: true,
	}

	// One timed round on a fresh fabric; returns wall seconds and the
	// transfers with their virtual timings filled in.
	round := func(lps int) (float64, []*tofu.Transfer, error) {
		fab := tofu.NewFabric(m.Map, m.Params)
		if err := fab.SetParallel(lps); err != nil {
			return 0, nil, err
		}
		trs := pdesTransfers(m, bytes)
		start := time.Now() //tofuvet:allow wallclock measuring the simulator's own speed, not simulated time
		err := fab.RunRound(trs, tofu.IfaceUTofu)
		wall := time.Since(start).Seconds() //tofuvet:allow wallclock measuring the simulator's own speed, not simulated time
		return wall, trs, err
	}

	var serialRef, parRef []*tofu.Transfer
	for i := 0; i < reps; i++ {
		ws, trs, err := round(1)
		if err != nil {
			return PdesResult{}, fmt.Errorf("serial round: %w", err)
		}
		if i == 0 || ws < res.SerialWall {
			res.SerialWall = ws
		}
		serialRef = trs
		wp, ptrs, err := round(lps)
		if err != nil {
			return PdesResult{}, fmt.Errorf("parallel round (%d LPs): %w", lps, err)
		}
		if i == 0 || wp < res.ParallelWall {
			res.ParallelWall = wp
		}
		parRef = ptrs
	}
	res.Transfers = len(serialRef)

	// One extra round with profiling on: per-LP counters, barrier-wait wall
	// timing and the message trace for the critical path. Untimed against
	// the headline series, and held to the same bit-identity contract —
	// profiling must never change virtual results.
	fab := tofu.NewFabric(m.Map, m.Params)
	if err := fab.SetParallel(lps); err != nil {
		return PdesResult{}, fmt.Errorf("profiled round: %w", err)
	}
	res.LPs = fab.Parallel()
	fab.SetProfiling(true)
	rec := trace.NewRecorder()
	fab.Rec = rec
	profRef := pdesTransfers(m, bytes)
	profStart := time.Now() //tofuvet:allow wallclock barrier-wait fraction relates profiled waits to the round's own wall time
	if err := fab.RunRound(profRef, tofu.IfaceUTofu); err != nil {
		return PdesResult{}, fmt.Errorf("profiled round: %w", err)
	}
	profWall := time.Since(profStart).Seconds() //tofuvet:allow wallclock barrier-wait fraction relates profiled waits to the round's own wall time
	st, _ := fab.ParallelStats()
	res.ImbalanceMax = st.ImbalanceMax()
	if profWall > 0 && len(st.LPs) > 0 {
		res.BarrierWaitFrac = st.TotalBarrierWait() / (float64(len(st.LPs)) * profWall)
	}
	cp := obs.Analyze(rec.Messages())
	res.CritPathFrac = cp.PathFrac
	if opt.Explain {
		res.ExplainReport = obs.Explain(&st, rec, 10)
	}

	for i := range serialRef {
		s, p, pr := serialRef[i], parRef[i], profRef[i]
		if s.IssueDone != p.IssueDone || s.Arrival != p.Arrival || s.RecvComplete != p.RecvComplete {
			res.Identical = false
		}
		if s.IssueDone != pr.IssueDone || s.Arrival != pr.Arrival || s.RecvComplete != pr.RecvComplete {
			res.Identical = false
		}
		if s.Arrival > res.VirtualTime {
			res.VirtualTime = s.Arrival
		}
	}
	if !res.Identical {
		return res, fmt.Errorf("pdes: %d LPs diverged from one LP on %d transfers", res.LPs, res.Transfers)
	}
	if res.ParallelWall > 0 {
		res.Speedup = res.SerialWall / res.ParallelWall
	}
	return res, nil
}

// Format renders the engine-speedup report.
func (p PdesResult) Format() string {
	s := "PDES: parallel event-engine speedup on one fabric round\n"
	s += fmt.Sprintf("tile: %d nodes, %d ranks, %d transfers; engine: %d LPs on %d host CPUs\n",
		p.Nodes, p.Ranks, p.Transfers, p.LPs, p.HostCPUs)
	s += fmt.Sprintf("serial wall: %.3f ms   parallel wall: %.3f ms   speedup: %.2fx\n",
		1e3*p.SerialWall, 1e3*p.ParallelWall, p.Speedup)
	ident := "yes"
	if !p.Identical {
		ident = "NO"
	}
	s += fmt.Sprintf("virtual time: %.2f us   bit-identical results: %s\n", 1e6*p.VirtualTime, ident)
	s += fmt.Sprintf("lp imbalance (max/mean events): %.3f   barrier-wait frac: %.3f   critical-path frac: %.4f\n",
		p.ImbalanceMax, p.BarrierWaitFrac, p.CritPathFrac)
	if p.Speedup < 1 && p.HostCPUs < 2 {
		s += "(single-CPU host: the epoch barrier can only cost; expect speedup >= 1 with 2+ CPUs)\n"
	}
	if p.ExplainReport != "" {
		s += "\n" + p.ExplainReport
	}
	return s
}

// Artifact emits the pdes series. Wall times are info-only (they track the
// host, not the model); the gated series are the speedup (higher is better,
// with a generous tolerance since hosts differ) and the virtual-time and
// identity checks, which are deterministic.
func (p PdesResult) Artifact(opt Options) *Artifact {
	a := NewArtifact("pdes", opt)
	a.Params["lps"] = p.LPs
	a.Params["host_cpus"] = p.HostCPUs
	a.Add("wall/serial", "s", p.SerialWall, "")
	a.Add("wall/parallel", "s", p.ParallelWall, "")
	a.Add("speedup", "x", p.Speedup, DirHigher)
	a.Add("virtual_time", "s", p.VirtualTime, DirEqual)
	identical := 0.0
	if p.Identical {
		identical = 1
	}
	a.Add("identical", "bool", identical, DirEqual)
	// Scaling-diagnosis series. Imbalance and critical-path fraction are
	// deterministic functions of the virtual round; the barrier-wait
	// fraction tracks the host (like the wall times) but is gated lower-is-
	// better so a scheduling regression in the engine shows up.
	a.Add("lp_imbalance_max", "x", p.ImbalanceMax, DirLower)
	a.Add("barrier_wait_frac", "frac", p.BarrierWaitFrac, DirLower)
	a.Add("critical_path_frac", "frac", p.CritPathFrac, DirLower)
	return a
}
