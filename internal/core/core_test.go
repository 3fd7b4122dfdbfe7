package core

import (
	"math"
	"os"
	"reflect"
	"testing"

	"tofumd/internal/md/sim"
	"tofumd/internal/script"
	"tofumd/internal/trace"
	"tofumd/internal/vec"
)

func TestWorkloadDescriptors(t *testing.T) {
	if LJSmall().Atoms != 65536 || LJSmall().FullShape.Prod() != 768 {
		t.Error("LJSmall descriptor wrong")
	}
	if EAMBig().Kind != EAM || EAMBig().Atoms != 1_700_000 {
		t.Error("EAMBig descriptor wrong")
	}
	if StrongScalingAtoms(LJ) != 4_194_304 || StrongScalingAtoms(EAM) != 3_456_000 {
		t.Error("strong scaling atom counts wrong")
	}
	if WeakScalingAtomsPerCore(LJ) != 100_000 || WeakScalingAtomsPerCore(EAM) != 72_000 {
		t.Error("weak scaling per-core loads wrong")
	}
}

func TestBaseConfigTable2(t *testing.T) {
	lj, err := BaseConfig(LJ)
	if err != nil {
		t.Fatal(err)
	}
	if lj.Skin != 0.3 || lj.NeighEvery != 20 || lj.CheckYes || lj.Dt != 0.005 {
		t.Errorf("LJ config %+v does not match Table 2", lj)
	}
	if lj.Potential.Cutoff() != 2.5 {
		t.Errorf("LJ cutoff %v", lj.Potential.Cutoff())
	}
	eam, err := BaseConfig(EAM)
	if err != nil {
		t.Fatal(err)
	}
	if eam.Skin != 1.0 || eam.NeighEvery != 5 || !eam.CheckYes {
		t.Errorf("EAM config %+v does not match Table 2", eam)
	}
	if eam.Potential.Cutoff() != 4.95 {
		t.Errorf("EAM cutoff %v", eam.Potential.Cutoff())
	}
}

func TestRunFunctionalTile(t *testing.T) {
	res, err := Run(RunSpec{
		Workload:    LJSmall(),
		TileShape:   vec.I3{X: 2, Y: 3, Z: 2},
		Variant:     sim.Opt(),
		Steps:       10,
		ThermoEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Per-rank load must match the full machine's: 65536/3072 ~ 21.3.
	if res.AtomsPerRank < 15 || res.AtomsPerRank > 30 {
		t.Errorf("atoms per rank = %.1f, want ~21", res.AtomsPerRank)
	}
	if res.Ranks != 48 {
		t.Errorf("tile ranks = %d", res.Ranks)
	}
	if res.PerfPerDay <= 0 || res.Elapsed <= 0 {
		t.Errorf("perf %v elapsed %v", res.PerfPerDay, res.Elapsed)
	}
	if len(res.Thermo) < 2 {
		t.Errorf("thermo samples = %d", len(res.Thermo))
	}
	if res.Breakdown.Get(trace.Comm) <= 0 {
		t.Error("comm stage empty")
	}
}

// TestStartDeckConfigMatchesSimNew runs an input deck's config through
// Start, the way mdsim -in does, and requires the same trajectory and
// virtual clock as a simulation built and stepped by hand on the same
// machine. Plan must be the started simulation's plan.
func TestStartDeckConfigMatchesSimNew(t *testing.T) {
	f, err := os.Open("../../inputs/in.lj")
	if err != nil {
		t.Fatal(err)
	}
	deck, err := script.Parse(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	cfg, _, err := deck.ToConfig()
	if err != nil {
		t.Fatal(err)
	}
	const steps = 40
	shape := vec.I3{X: 2, Y: 2, Z: 2}
	res, err := Run(RunSpec{TileShape: shape, Variant: sim.Opt(), Config: &cfg, Steps: steps, ThermoEvery: 7, NewtonOff: true})
	if err != nil {
		t.Fatal(err)
	}

	m, err := sim.NewMachine(shape)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(m, sim.Opt(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < steps; i++ {
		s.Step()
	}
	if want := trace.Merge(s.Breakdowns()); *res.Breakdown != *want {
		t.Errorf("breakdown:\n%s\nwant:\n%s", res.Breakdown.Report(), want.Report())
	}
	if want := s.ElapsedMax(); res.Elapsed != want {
		t.Errorf("elapsed %v, want %v", res.Elapsed, want)
	}
	if len(s.Thermo) == 0 || !reflect.DeepEqual(res.Thermo, s.Thermo) {
		t.Errorf("thermo %+v, want the deck's every-20 samples %+v", res.Thermo, s.Thermo)
	}

	base := RunSpec{Workload: LJSmall(), TileShape: shape, Variant: sim.Opt()}
	newtonOff := base
	newtonOff.NewtonOff = true
	plain, err := Plan(base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Plan(newtonOff)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Start(newtonOff)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Sim().HaloPlan()
	r.Close()
	if got != want {
		t.Errorf("newton-off: Plan\n%s\nwant Start's\n%s", got, want)
	}
	// Full shells double the links, so the plan shows Newton's setting.
	if got == plain {
		t.Error("newton-off: plan equals the default spec's; the setting did not reach it")
	}
}

func TestPerfPerDay(t *testing.T) {
	// 99 LJ steps of 0.005 tau in 0.495 virtual seconds = 1 tau/s = 86400
	// tau/day.
	got := PerfPerDay(LJ, 99, 0.005, 0.495)
	if math.Abs(got-86400) > 1e-6 {
		t.Errorf("PerfPerDay = %v", got)
	}
	// Metal converts ps to us.
	gotEAM := PerfPerDay(EAM, 99, 0.005, 0.495)
	if math.Abs(gotEAM-86400e-6) > 1e-12 {
		t.Errorf("EAM PerfPerDay = %v", gotEAM)
	}
	if PerfPerDay(LJ, 1, 1, 0) != 0 {
		t.Error("zero elapsed must give zero perf")
	}
}

func TestDefaultTile(t *testing.T) {
	small := vec.I3{X: 4, Y: 6, Z: 4}
	if DefaultTile(small, 512) != small {
		t.Error("small shape must pass through")
	}
	big := vec.I3{X: 32, Y: 36, Z: 32}
	tile := DefaultTile(big, 512)
	if tile.Prod() > 512 {
		t.Errorf("tile %+v exceeds cap", tile)
	}
	if tile.X < 2 || tile.Y < 2 || tile.Z < 2 {
		t.Errorf("tile %+v degenerate", tile)
	}
}

func TestModeledStrongScalingShapes(t *testing.T) {
	// Modeled runs at the last strong-scaling point must reproduce the
	// paper's qualitative Table 3 facts: comm dominates the baseline, the
	// optimized code shifts time back to compute, and the speedup lands
	// in the paper's band.
	mk := func(v sim.Variant) *RunResult {
		r, err := Modeled(ModelSpec{
			Kind:         LJ,
			Variant:      v,
			FullShape:    vec.I3{X: 32, Y: 36, Z: 32},
			AtomsPerRank: 4194304.0 / 147456.0,
			Steps:        99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ref := mk(sim.Ref())
	opt := mk(sim.Opt())
	refCommShare := ref.Breakdown.Get(trace.Comm) / ref.Breakdown.Total()
	if refCommShare < 0.45 || refCommShare > 0.8 {
		t.Errorf("baseline comm share %.0f%%, paper reports 64.85%%", 100*refCommShare)
	}
	optCommShare := opt.Breakdown.Get(trace.Comm) / opt.Breakdown.Total()
	if optCommShare >= refCommShare {
		t.Error("optimized comm share must drop")
	}
	speedup := ref.Elapsed / opt.Elapsed
	if speedup < 2.0 || speedup > 4.5 {
		t.Errorf("speedup %.2fx outside the plausible band around the paper's 2.9x", speedup)
	}
	if ref.Ranks != 147456 {
		t.Errorf("full ranks = %d", ref.Ranks)
	}
}

func TestModeledWeakScalingLinear(t *testing.T) {
	perRank := float64(WeakScalingAtomsPerCore(LJ) * 12)
	mk := func(shape vec.I3) *RunResult {
		r, err := Modeled(ModelSpec{
			Kind:         LJ,
			Variant:      sim.Opt(),
			FullShape:    shape,
			AtomsPerRank: perRank,
			Steps:        20,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := mk(vec.I3{X: 8, Y: 12, Z: 8})
	b := mk(vec.I3{X: 24, Y: 36, Z: 24})
	perNodeA := float64(a.Atoms) * float64(a.Steps) / a.Elapsed / 768
	perNodeB := float64(b.Atoms) * float64(b.Steps) / b.Elapsed / 20736
	lin := perNodeB / perNodeA
	if lin < 0.85 || lin > 1.15 {
		t.Errorf("weak scaling linearity %.2f, want near 1 (Fig. 14)", lin)
	}
}

func TestHaloTimeOrdering(t *testing.T) {
	per := 65536.0 / 3072.0
	spec := func(v sim.Variant) ModelSpec {
		return ModelSpec{
			Kind: LJ, Variant: v,
			FullShape:    vec.I3{X: 8, Y: 12, Z: 8},
			TileShape:    vec.I3{X: 4, Y: 6, Z: 4},
			AtomsPerRank: per,
		}
	}
	run := func(spec ModelSpec) float64 {
		tm, err := HaloTime(spec)
		if err != nil {
			t.Fatal(err)
		}
		return tm
	}
	mk := func(v sim.Variant) float64 { return run(spec(v)) }
	ref := mk(sim.Ref())
	mpiP2P := mk(sim.MPIP2P())
	u3 := mk(sim.UTofu3Stage())
	p4 := mk(sim.P2P4TNI())
	p6 := mk(sim.P2P6TNI())
	opt := mk(sim.Opt())
	// The Fig. 6 ordering.
	if !(mpiP2P > ref && ref > u3 && u3 > p4 && p6 > p4 && opt < p4) {
		t.Errorf("Fig. 6 ordering violated: ref=%.3g mpi-p2p=%.3g u3=%.3g p4=%.3g p6=%.3g opt=%.3g",
			ref, mpiP2P, u3, p4, p6, opt)
	}
	// Headline: ~79% reduction p2p vs MPI 3-stage.
	red := 1 - p4/ref
	if red < 0.6 || red > 0.92 {
		t.Errorf("p2p reduction vs MPI 3-stage = %.0f%%, paper 79%%", 100*red)
	}
	// HaloTime honours the placement ablation as Modeled does: linear
	// placement stretches neighbor links over more hops (section 3.5.3).
	linear := spec(sim.Opt())
	linear.LinearMap = true
	lin := run(linear)
	t.Logf("opt halo: %.3g s topo placement, %.3g s linear", opt, lin)
	if lin <= opt {
		t.Errorf("opt halo under linear placement %.3g not above topo placement %.3g", lin, opt)
	}
}

func TestKindString(t *testing.T) {
	if LJ.String() != "lj" || EAM.String() != "eam" {
		t.Error("kind names")
	}
}
