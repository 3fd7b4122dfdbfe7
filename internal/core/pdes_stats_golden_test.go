package core

import (
	"bytes"
	"reflect"
	"testing"

	"tofumd/internal/des"
	"tofumd/internal/md/sim"
	"tofumd/internal/obs"
	"tofumd/internal/trace"
	"tofumd/internal/vec"
)

// The golden checks of the scaling-diagnosis layer on the Fig. 6
// configuration: the engine's profiling counters must describe the same
// virtual computation at every LP count, and turning profiling on must not
// perturb any observable result — times, message traces, or the exported
// Chrome bytes.

func fig6Spec(lps int, rec *trace.Recorder, stats *des.ParallelStats, profile bool) ModelSpec {
	full := LJSmall().FullShape
	return ModelSpec{
		Kind: LJ, Variant: sim.StepByStepVariants()[0],
		FullShape: full, TileShape: vec.I3{X: 4, Y: 6, Z: 4},
		AtomsPerRank: float64(LJSmall().Atoms) / float64(full.Prod()*4),
		LPs:          lps, Rec: rec, Stats: stats, Profile: profile,
	}
}

// TestParallelStatsTotalsInvariantAcrossLPCounts pins the partition
// invariance of the profile: the same halo exchange run with 1, 2, 4 and 8
// LPs executes the same events, however they are split across LPs. A fabric
// round sends no event to another LP (receive completions are applied after
// the engine drains), so at every LP count it sends and stages nothing;
// epochs depend on the lookahead window per LP count. LPs left unset (0) is
// one LP and fills Stats like any other count.
func TestParallelStatsTotalsInvariantAcrossLPCounts(t *testing.T) {
	var ref des.ParallelStats
	for i, lps := range []int{0, 1, 2, 4, 8} {
		var st des.ParallelStats
		if _, err := HaloTime(fig6Spec(lps, nil, &st, false)); err != nil {
			t.Fatalf("%d LPs: %v", lps, err)
		}
		if want := max(lps, 1); len(st.LPs) != want {
			t.Fatalf("%d LPs: stats carry %d LP rows, want %d", lps, len(st.LPs), want)
		}
		if st.TotalEvents() == 0 {
			t.Fatalf("%d LPs: empty profile %+v", lps, st)
		}
		if st.TotalSends() != 0 || st.TotalStaged() != 0 {
			t.Errorf("%d LPs: fabric rounds sent %d events (%d staged across LPs), want none", lps, st.TotalSends(), st.TotalStaged())
		}
		// max/mean events across LPs: exactly 1 when one LP holds them all,
		// never below 1 when they are split.
		if imb := st.ImbalanceMax(); (lps <= 1 && imb != 1) || imb < 1 {
			t.Errorf("%d LPs: ImbalanceMax = %v, want 1 at one LP and >= 1 otherwise", lps, imb)
		}
		if i == 0 {
			ref = st
			continue
		}
		if st.TotalEvents() != ref.TotalEvents() {
			t.Errorf("%d LPs: total events %d != 1-LP total %d", lps, st.TotalEvents(), ref.TotalEvents())
		}
	}
}

// TestProfilingDoesNotChangeResults is the bit-identity golden: the same
// 4-LP run with profiling on and off must agree on the halo time, on every
// recorded message event, on the critical-path fraction read from them, and
// on the exported Chrome trace bytes. Only the stats may differ
// (barrier-wait timing appears when profiled).
func TestProfilingDoesNotChangeResults(t *testing.T) {
	run := func(profile bool) (float64, *trace.Recorder, des.ParallelStats) {
		rec := trace.NewRecorder()
		var st des.ParallelStats
		tm, err := HaloTime(fig6Spec(4, rec, &st, profile))
		if err != nil {
			t.Fatalf("profile=%v: %v", profile, err)
		}
		return tm, rec, st
	}
	tOff, recOff, stOff := run(false)
	tOn, recOn, stOn := run(true)
	if tOn != tOff {
		t.Errorf("profiled halo time %v != unprofiled %v", tOn, tOff)
	}
	if !reflect.DeepEqual(recOn.Messages(), recOff.Messages()) {
		t.Error("profiling changed the recorded message events")
	}
	if on, off := obs.Analyze(recOn.Messages()).PathFrac, obs.Analyze(recOff.Messages()).PathFrac; on != off {
		t.Errorf("profiled critical-path fraction %v != unprofiled %v", on, off)
	}
	var bufOff, bufOn bytes.Buffer
	if err := recOff.WriteChrome(&bufOff); err != nil {
		t.Fatal(err)
	}
	if err := recOn.WriteChrome(&bufOn); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufOff.Bytes(), bufOn.Bytes()) {
		t.Error("profiling changed the Chrome trace bytes")
	}
	// The always-on counters agree; only the wall-clock waits are gated.
	if stOn.TotalEvents() != stOff.TotalEvents() || stOn.TotalSends() != stOff.TotalSends() {
		t.Errorf("profiling changed the counters: %+v vs %+v", stOn, stOff)
	}
	if !stOn.Profiled || stOff.Profiled {
		t.Errorf("Profiled flags wrong: on=%v off=%v", stOn.Profiled, stOff.Profiled)
	}
	if stOff.TotalBarrierWait() != 0 {
		t.Errorf("unprofiled run reports barrier wait %v, want 0", stOff.TotalBarrierWait())
	}
}

// TestModeledRunFillsStats checks the full Modeled path (not just HaloTime)
// delivers the engine profile through ModelSpec.Stats, with LPs set or left
// at its zero value.
func TestModeledRunFillsStats(t *testing.T) {
	full := LJSmall().FullShape
	for _, lps := range []int{0, 2} {
		var st des.ParallelStats
		spec := ModelSpec{
			Kind: LJ, Variant: sim.Opt(),
			FullShape: full, TileShape: vec.I3{X: 4, Y: 6, Z: 4},
			AtomsPerRank: float64(LJSmall().Atoms) / float64(full.Prod()*4),
			Steps:        5, LPs: lps, Stats: &st,
		}
		if _, err := Modeled(spec); err != nil {
			t.Fatal(err)
		}
		if len(st.LPs) != max(lps, 1) || st.TotalEvents() == 0 {
			t.Errorf("LPs=%d: Modeled left stats empty: %+v", lps, st)
		}
	}
}

// TestFunctionalRunProfileMatchesUnprofiled drives core.Run with
// RunSpec.Profile on a functional melt: virtual results must be identical
// to the unprofiled run at the same LP count.
func TestFunctionalRunProfileMatchesUnprofiled(t *testing.T) {
	run := func(profile bool) *RunResult {
		res, err := Run(RunSpec{
			Workload:    LJSmall(),
			TileShape:   vec.I3{X: 2, Y: 2, Z: 2},
			Variant:     sim.Opt(),
			Steps:       8,
			ParallelLPs: 4,
			Profile:     profile,
		})
		if err != nil {
			t.Fatalf("profile=%v: %v", profile, err)
		}
		return res
	}
	plain := run(false)
	prof := run(true)
	if prof.Elapsed != plain.Elapsed {
		t.Errorf("profiled elapsed %v != plain %v", prof.Elapsed, plain.Elapsed)
	}
	if !reflect.DeepEqual(prof.Breakdown, plain.Breakdown) {
		t.Error("profiling changed the stage breakdown")
	}
}
