package bench

import (
	"strings"
	"testing"

	"tofumd/internal/trace"
)

// checkTargets fails t for every Targets row of a's experiment that a
// misses.
func checkTargets(t *testing.T, a *Artifact) {
	t.Helper()
	for _, err := range CheckTargets(a) {
		t.Error(err)
	}
}

func TestTable1(t *testing.T) {
	res := Table1(2.94, 2.8)
	t.Log("\n" + res.Format())
	checkTargets(t, res.Artifact(Options{}))
	if res.TotalP2P >= res.TotalThreeStage {
		t.Error("p2p must halve the exchanged volume with Newton on")
	}
}

func TestFig6(t *testing.T) {
	res, err := Fig6(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Format())
	tm := map[string][2]float64{}
	for _, r := range res.Rows {
		tm[r.Variant] = [2]float64{r.SmallTime, r.BigTime}
	}
	// The Fig. 6 orderings on the small system.
	if !(tm["mpi-p2p"][0] > tm["ref"][0]) {
		t.Error("MPI p2p must be slower than MPI 3-stage")
	}
	if !(tm["utofu-3stage"][0] < tm["ref"][0]/2) {
		t.Error("uTofu 3-stage must at least halve the MPI 3-stage time")
	}
	if !(tm["6tni-p2p"][0] > tm["4tni-p2p"][0]) {
		t.Error("single-thread 6-TNI must lose to 4-TNI")
	}
	if !(tm["opt"][0] < tm["4tni-p2p"][0]) {
		t.Error("thread pool must win")
	}
	// Big system: every uTofu p2p beats uTofu 3-stage (section 4.2).
	if !(tm["4tni-p2p"][1] < tm["utofu-3stage"][1] && tm["opt"][1] < tm["utofu-3stage"][1]) {
		t.Error("at 1.7M atoms all uTofu p2p variants must beat 3-stage")
	}
	checkTargets(t, res.Artifact(Options{}))
}

func TestFig8(t *testing.T) {
	res, err := Fig8(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Format())
	if small := res.Rows[0]; small.Rate6TNI >= small.Rate4TNI {
		t.Error("6-TNI spraying must lower the single-thread message rate")
	}
	checkTargets(t, res.Artifact(Options{}))
}

func TestFig11(t *testing.T) {
	res, err := Fig11(Options{Steps: 60})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Format())
	checkTargets(t, res.Artifact(Options{Steps: 60}))
	if len(res.LJRef.Steps) < 3 {
		t.Error("too few samples")
	}
}

func TestFig12(t *testing.T) {
	res, err := Fig12(Options{Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Format())
	checkTargets(t, res.Artifact(Options{Steps: 10}))
	// The big systems must improve less than the small ones (pair-bound).
	if res.SpeedupBigLJ >= res.SpeedupSmallLJ {
		t.Error("1.7M speedup must be below 65K speedup")
	}
	// MPI p2p must be a slowdown on the small system.
	for _, r := range res.Rows {
		if r.System == "lj-65k" && r.Variant == "mpi-p2p" && r.Speedup >= 1 {
			t.Error("naive MPI p2p must lose to the baseline")
		}
	}
}

func TestFig13(t *testing.T) {
	res, err := Fig13(Options{Steps: 99})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Format())
	t.Log("\n" + res.FormatTable3())
	checkTargets(t, res.Artifact(Options{Steps: 99}))
	checkTargets(t, res.Table3Artifact(Options{Steps: 99}))
	// Speedup must grow with scale (communication increasingly dominates).
	var prev float64
	for _, r := range res.Rows {
		if r.Kind != "lj" {
			continue
		}
		if r.Speedup < prev {
			t.Errorf("LJ speedup not monotone: %.2fx after %.2fx at %d nodes", r.Speedup, prev, r.Nodes)
		}
		prev = r.Speedup
	}
	// Opt efficiency beats ref efficiency at the last point.
	last := res.Rows[4]
	if last.OptEff <= last.RefEff {
		t.Error("optimized parallel efficiency must exceed baseline")
	}
	if optEAM := res.Table3["Opt-EAM"]; optEAM == nil || optEAM.Get(trace.Other) <= optEAM.Get(trace.Comm) {
		t.Error("Opt-EAM 'Other' must exceed 'Comm' (the check-yes allreduce at scale)")
	}
}

func TestFig14(t *testing.T) {
	res, err := Fig14(Options{Steps: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Format())
	checkTargets(t, res.Artifact(Options{Steps: 20}))
	// The table holds each kind's last point; every earlier point must lie
	// in the same linearity band.
	for _, tg := range targetsOf("fig14") {
		if !strings.HasSuffix(tg.Key, "/linearity") {
			continue
		}
		kind, _, _ := strings.Cut(tg.Key, "/")
		for _, r := range res.Rows {
			if r.Kind == kind && !tg.holds(r.LinearityVsFirst) {
				t.Errorf("%s at %d nodes: linearity %.4f outside %s", r.Kind, r.Nodes, r.LinearityVsFirst, tg.band())
			}
		}
	}
}

func TestFig15(t *testing.T) {
	res, err := Fig15(Options{Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Format())
	checkTargets(t, res.Artifact(Options{Steps: 10}))
}

func TestFaults(t *testing.T) {
	res, err := Faults(Options{Steps: 40})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Format())
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.Rows))
	}
	var prevElapsed float64
	for _, r := range res.Rows {
		lbl := faultLabel(r.Spec)
		if !r.PhysicsIdentical {
			t.Errorf("%s: physics diverged from the fault-free run", lbl)
		}
		if !r.ReplayIdentical {
			t.Errorf("%s: replay was not bit-identical", lbl)
		}
		if r.Spec.Drop > 0 && r.Elapsed <= prevElapsed {
			t.Errorf("%s: elapsed %.6g not above the previous rate's %.6g", lbl, r.Elapsed, prevElapsed)
		}
		prevElapsed = r.Elapsed
	}
	forced := res.Rows[len(res.Rows)-1]
	if forced.FallbackMsgs == 0 {
		t.Error("forced-fallback row recorded no fallback messages")
	}
	if highest := res.Rows[3]; highest.Retransmits == 0 {
		t.Error("drop=1e-2 row recorded no retransmissions")
	}
}
