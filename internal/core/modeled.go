package core

import (
	"fmt"
	"math"

	"tofumd/internal/des"
	"tofumd/internal/halo"
	"tofumd/internal/machine"
	"tofumd/internal/md/sim"
	"tofumd/internal/metrics"
	"tofumd/internal/tofu"
	"tofumd/internal/topo"
	"tofumd/internal/trace"
	"tofumd/internal/units"
	"tofumd/internal/vec"
)

// ModelSpec describes a modeled (timing-only) run: per-rank loads and
// message sizes are derived analytically from the homogeneous benchmark
// geometry, communication rounds execute on a representative torus tile,
// and collectives are charged at the full machine's rank count. This is the
// substitution for the machine scales a functional run cannot hold (the
// 99-billion-atom weak scaling of Fig. 14, the 36,864-node strong-scaling
// points of Fig. 13); see DESIGN.md section 2.
type ModelSpec struct {
	Kind    Kind
	Variant sim.Variant
	// FullShape is the machine being modeled; TileShape the torus actually
	// simulated (defaults to DefaultTile(FullShape, 512)).
	FullShape, TileShape vec.I3
	// AtomsPerRank is the modeled per-rank load.
	AtomsPerRank float64
	// Steps is the modeled step count.
	Steps int
	// LinearMap disables topology-preserving placement (ablation).
	LinearMap bool
	// Rec, when non-nil, collects per-message fabric events of the modeled
	// rounds (each round runs on the tile fabric with time starting at 0).
	Rec *trace.Recorder
	// Met, when non-nil, aggregates fabric counters/histograms of the
	// modeled rounds.
	Met *metrics.Registry
	// LPs is the number of logical processes the fabric rounds run on
	// (LPs <= 1: one LP, a serial loop); results are bit-identical at every
	// count.
	LPs int
	// Stats, when non-nil, receives the engine's cumulative per-LP profile
	// after the run.
	Stats *des.ParallelStats
}

// captureStats copies the fabric's engine profile into spec.Stats.
func (spec ModelSpec) captureStats(fab *tofu.Fabric) {
	if spec.Stats != nil {
		*spec.Stats, _ = fab.ParallelStats()
	}
}

// kindParams bundles the geometry constants of a benchmark kind.
type kindParams struct {
	density    float64 // atoms per volume
	cutoff     float64
	skin       float64
	dt         float64
	neighEvery int
	checkYes   bool
	// rebuildEvery is the effective rebuild interval (every check for
	// "check no", a multiple for "check yes" where most checks pass).
	rebuildEvery int
}

func paramsFor(k Kind) kindParams {
	if k == EAM {
		a := 3.615
		return kindParams{
			density:      4 / (a * a * a),
			cutoff:       4.95,
			skin:         1.0,
			dt:           0.005,
			neighEvery:   5,
			checkYes:     true,
			rebuildEvery: 20,
		}
	}
	return kindParams{
		density:      0.8442,
		cutoff:       2.5,
		skin:         0.3,
		dt:           0.005,
		neighEvery:   20,
		checkYes:     false,
		rebuildEvery: 20,
	}
}

// modelSetup is the state both modeled entry points build from a spec: the
// tile machine and its fabric, the kind's geometry, and the halo plan the
// functional engine would run on the tile, with its thread/TNI assignment.
type modelSetup struct {
	v   sim.Variant
	m   *sim.Machine
	fab *tofu.Fabric
	kp  kindParams
	// side, ghCut and shells are the homogeneous sub-box geometry.
	side, ghCut float64
	shells      int
	plan        *halo.Plan
	// fwd and rev are the resources of each plan link's two sending sides.
	fwd, rev []halo.Res
	// atoms is the expected ghost atoms on a link, by linkClass.
	atoms [4 * 8]float64
	// recs back one round's transfers, which rounds writes in place; trs
	// points at them.
	recs []tofu.Transfer
	trs  []*tofu.Transfer
}

// setup defaults the tile, builds the machine in the spec's placement mode
// and a fabric carrying the spec's recorder, metrics and engine settings,
// and derives the per-rank geometry and the halo plan.
func (spec *ModelSpec) setup() (*modelSetup, error) {
	if spec.TileShape == (vec.I3{}) {
		spec.TileShape = DefaultTile(spec.FullShape, 512)
	}
	mode := topo.MapTopo
	if spec.LinearMap {
		mode = topo.MapLinear
	}
	m, err := sim.NewMachineMode(spec.TileShape, mode)
	if err != nil {
		return nil, err
	}
	fab := tofu.NewFabric(m.Map, m.Params)
	fab.Rec = spec.Rec
	fab.SetMetrics(spec.Met)
	if err := fab.SetParallel(spec.LPs); err != nil {
		return nil, err
	}

	kp := paramsFor(spec.Kind)
	ms := &modelSetup{v: spec.Variant, m: m, fab: fab, kp: kp,
		side: math.Cbrt(spec.AtomsPerRank / kp.density), ghCut: kp.cutoff + kp.skin, shells: 1}
	for ms.ghCut > float64(ms.shells)*ms.side {
		ms.shells++
	}
	// Both benchmark kinds run Newton on with half lists.
	ms.plan = halo.NewPlan(m.Map, spec.Variant.Pattern, ms.shells, halo.SendDirections(ms.shells, true))
	ms.fwd, ms.rev = ms.plan.Assign(spec.Variant.TNIPolicy,
		halo.SurvivingTNIs(m.Params.TNIsPerNode, nil), spec.Variant.CommThreads, halo.Balance{
			// 40 bytes: md/sim's border record (id, type, position).
			Side: ms.side, Cutoff: ms.ghCut, Density: kp.density, AtomBytes: 40,
			Bandwidth: m.Params.LinkBandwidth, HopLatency: m.Params.HopLatency,
		})
	ms.setAtoms()
	ms.recs = make([]tofu.Transfer, len(ms.plan.Links)/len(ms.plan.Rounds))
	ms.trs = make([]*tofu.Transfer, len(ms.recs))
	for i := range ms.recs {
		ms.trs[i] = &ms.recs[i]
	}
	return ms, nil
}

// Modeled runs the timing-only model and returns a RunResult whose
// Breakdown holds the full-run stage times of an average rank.
func Modeled(spec ModelSpec) (*RunResult, error) {
	ms, err := spec.setup()
	if err != nil {
		return nil, err
	}
	return spec.modeled(ms, ms.rounds), nil
}

// roundsFunc is the signature of modelSetup.rounds.
type roundsFunc func(perAtomBytes int, reverse, forceMPI bool, extraPerLink int, cost machine.CostModel) float64

// modeled assembles Modeled's result on a setup, running each halo
// operation through rounds.
func (spec ModelSpec) modeled(ms *modelSetup, rounds roundsFunc) *RunResult {
	m, fab, kp, cost := ms.m, ms.fab, ms.kp, ms.m.Cost
	th := spec.Variant.ComputeThreading
	n := spec.AtomsPerRank
	fullRanks := spec.FullShape.Prod() * m.Map.RanksPerNode()

	// Expected half-list pair count per rank.
	fullNeigh := 4.0 / 3.0 * math.Pi * kp.cutoff * kp.cutoff * kp.cutoff * kp.density
	pairs := int(n * fullNeigh / 2)
	candidates := int(n * fullNeigh * 27 / (4.0 / 3.0 * math.Pi)) // 27-bin scan ratio

	bd := &trace.Breakdown{}

	// Per-step stage times (an average rank; the tile is homogeneous).
	integrate := cost.IntegrateTime(int(n), th)

	commRound := func(perAtomBytes int, reverse, forceMPI bool, extraPerLink int) float64 {
		return rounds(perAtomBytes, reverse, forceMPI, extraPerLink, cost)
	}

	// Pair-stage time; EAM adds its two in-pair exchanges (section 4.1).
	var pairPer float64
	if spec.Kind == EAM {
		pairPer = cost.EAMPassTime(pairs, th) + cost.EAMEmbedTime(int(n), th) + cost.EAMPassTime(pairs, th)
		pairPer += commRound(8, true, false, 0)  // reverse rho
		pairPer += commRound(8, false, false, 0) // forward fp
	} else {
		pairPer = cost.PairTime(pairs, th)
	}

	forwardPer := commRound(24, false, false, 0)
	reversePer := commRound(24, true, false, 0)
	// Exchange is cold-path and flows over MPI in every variant; a thin
	// shell of movers per link.
	exchangePer := commRound(0, false, true, 64*int(1+n*0.01))
	borderPer := commRound(40, false, false, 0) +
		cost.BorderDecideTime(int(n), spec.Variant.BorderBins)
	neighPer := cost.NeighTime(int(n), candidates, th)

	// The "check yes" allreduce carries a single 8-byte word (section 4.1).
	const allreduceWordBytes units.Bytes = 8
	checkCost := cost.ScanTime(int(n)) + fab.AllreduceTime(fullRanks, allreduceWordBytes, tofu.IfaceMPI)

	steps := spec.Steps
	rebuilds := steps / kp.rebuildEvery
	checks := 0
	if kp.checkYes {
		checks = steps / kp.neighEvery
	}
	ordinarySteps := steps - rebuilds

	bd.Add(trace.Modify, 2*integrate*float64(steps))
	bd.Add(trace.Pair, pairPer*float64(steps))
	bd.Add(trace.Comm, (forwardPer+reversePer)*float64(ordinarySteps))
	bd.Add(trace.Comm, (exchangePer+borderPer+reversePer)*float64(rebuilds))
	bd.Add(trace.Neigh, neighPer*float64(rebuilds))
	bd.Add(trace.Other, checkCost*float64(checks)+cost.ThermoTime(int(n))+
		cost.OtherPerStep*float64(steps))

	spec.captureStats(fab)
	elapsed := bd.Total()
	wl := Workload{
		Name:      fmt.Sprintf("%s-modeled", spec.Kind),
		Kind:      spec.Kind,
		Atoms:     int(n * float64(fullRanks)),
		FullShape: spec.FullShape,
		Steps:     spec.Steps,
	}
	return &RunResult{
		Spec:         RunSpec{Workload: wl, TileShape: spec.TileShape, Variant: spec.Variant, Steps: steps},
		Breakdown:    bd,
		Elapsed:      elapsed,
		Ranks:        fullRanks,
		Atoms:        wl.Atoms,
		AtomsPerRank: n,
		Steps:        steps,
		PerfPerDay:   PerfPerDay(spec.Kind, steps, kp.dt, elapsed),
	}
}

// HaloTime returns the modeled time of one ghost exchange (a forward round
// followed by a reverse round) for the given spec, excluding data-packing
// time — the quantity of the paper's Fig. 6 microbenchmark.
func HaloTime(spec ModelSpec) (float64, error) {
	ms, err := spec.setup()
	if err != nil {
		return 0, err
	}
	cost := ms.m.Cost
	cost.PackPerByte = 0
	cost.UnpackPerByte = 0
	fwd := ms.rounds(24, false, false, 0, cost)
	rev := ms.rounds(24, true, false, 0, cost)
	spec.captureStats(ms.fab)
	return fwd + rev, nil
}

// linkClass indexes modelSetup.atoms: a link's expected ghost atoms depend
// only on its stage dimension and, for p2p, on which axes its direction
// moves along.
func linkClass(stage3Dim int, dir vec.I3) int {
	c := (stage3Dim + 1) << 3
	if dir.X != 0 {
		c |= 1
	}
	if dir.Y != 0 {
		c |= 2
	}
	if dir.Z != 0 {
		c |= 4
	}
	return c
}

// setAtoms fills the expected ghost atoms of every link class: the staged
// slabs grow with forwarded ghosts (Table 1: a^2 r, then ar(a+2r), then
// (a+2r)^2 r, split over the forwarding iterations); a p2p message carries
// its neighbor's ghost-region volume.
func (ms *modelSetup) setAtoms() {
	a, r := ms.side, ms.ghCut
	perIter := ms.kp.density / float64(ms.shells)
	for c := range ms.atoms {
		var n float64
		switch c >> 3 {
		case 0:
			// MessageVolume reads only which components are zero.
			dir := vec.I3{X: c & 1, Y: c >> 1 & 1, Z: c >> 2 & 1}
			n = halo.MessageVolume(dir, a, r) * ms.kp.density
		case 1:
			n = a * a * r * perIter
		case 2:
			n = a * r * (a + 2*r) * perIter
		default:
			n = (a + 2*r) * (a + 2*r) * r * perIter
		}
		ms.atoms[c] = n
	}
}

// rounds executes one halo operation (all the plan's rounds, backwards for
// a reverse operation) on the fabric and returns the average per-rank
// duration including pack/unpack costs. Each round issues rank by rank in
// the plan's order, as the functional engine does.
func (ms *modelSetup) rounds(perAtomBytes int, reverse, forceMPI bool, extraPerLink int, cost machine.CostModel) float64 {
	fab, m, v, plan := ms.fab, ms.m, ms.v, ms.plan
	iface := tofu.IfaceUTofu
	if v.Transport == halo.TransportMPI || forceMPI {
		iface = tofu.IfaceMPI
	}
	twoStep := iface == tofu.IfaceMPI && perAtomBytes == 0 && !v.CombineLength
	senders, res, dres := plan.Send, ms.fwd, ms.rev
	if reverse {
		senders, res, dres = plan.Recv, ms.rev, ms.fwd
	}
	var classBytes [len(ms.atoms)]int
	for c, n := range ms.atoms {
		classBytes[c] = int(n*float64(perAtomBytes)) + extraPerLink
	}
	total := 0.0
	for i := range plan.Rounds {
		k := plan.Rounds[i]
		if reverse {
			k = plan.Rounds[len(plan.Rounds)-1-i]
		}
		var bytesPerRank float64
		n := 0
		for src, links := range senders {
			for _, li := range links {
				l := &plan.Links[li]
				if !halo.InRound(l.Stage3Dim, l.Stage3Iter, k) {
					continue
				}
				bytes := classBytes[linkClass(l.Stage3Dim, l.Dir)]
				if bytes == 0 {
					continue
				}
				dst := l.Dst
				if reverse {
					dst = l.Src
				}
				// Every field RunRound reads is written here or never set;
				// it writes every output of a drained round.
				tr, r := &ms.recs[n], res[li]
				tr.Src, tr.Dst, tr.TNI, tr.VCQ = src, dst, r.TNI, src*8+r.TNI
				tr.Thread, tr.DstThread, tr.Bytes, tr.TwoStep = r.Thread, dres[li].Thread, bytes, twoStep
				n++
				bytesPerRank += float64(bytes)
			}
		}
		if n == 0 {
			continue
		}
		// A round that fails to drain is a fabric invariant violation, not a
		// modeling outcome; the timing model has no recovery for it.
		if err := fab.RunRound(ms.trs[:n], iface); err != nil {
			panic("core: " + err.Error())
		}
		var maxDone float64
		for j := range ms.recs[:n] {
			if d := ms.recs[j].RecvComplete; d > maxDone {
				maxDone = d
			}
		}
		perRankBytes := int(bytesPerRank / float64(m.Map.Ranks()))
		pack := cost.PackTime(units.Bytes(perRankBytes), v.PackThreading())
		unpack := cost.UnpackTime(units.Bytes(perRankBytes), v.PackThreading())
		if v.Preregistered && !reverse && perAtomBytes == 24 {
			unpack = 0 // direct RDMA write into the position array
		}
		total += pack + maxDone + unpack
	}
	return total
}
