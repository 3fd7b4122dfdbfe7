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
// configuration: the engine's event counters must describe the same virtual
// computation at every LP count, and requesting them must not perturb any
// observable result — times, message traces, or the exported Chrome bytes.

func fig6Spec(lps int, rec *trace.Recorder, stats *des.ParallelStats) ModelSpec {
	full := LJSmall().FullShape
	return ModelSpec{
		Kind: LJ, Variant: sim.StepByStepVariants()[0],
		FullShape: full, TileShape: vec.I3{X: 4, Y: 6, Z: 4},
		AtomsPerRank: float64(LJSmall().Atoms) / float64(full.Prod()*4),
		LPs:          lps, Rec: rec, Stats: stats,
	}
}

// TestParallelStatsTotalsInvariantAcrossLPCounts pins the partition
// invariance of the profile: the same halo exchange run with 1, 2, 4 and 8
// LPs executes the same events, however they are split across LPs. LPs left
// unset (0) is one LP and fills Stats like any other count.
func TestParallelStatsTotalsInvariantAcrossLPCounts(t *testing.T) {
	var ref des.ParallelStats
	for i, lps := range []int{0, 1, 2, 4, 8} {
		var st des.ParallelStats
		if _, err := HaloTime(fig6Spec(lps, nil, &st)); err != nil {
			t.Fatalf("%d LPs: %v", lps, err)
		}
		if want := max(lps, 1); len(st.LPs) != want {
			t.Fatalf("%d LPs: stats carry %d LP rows, want %d", lps, len(st.LPs), want)
		}
		if st.TotalEvents() == 0 {
			t.Fatalf("%d LPs: empty profile %+v", lps, st)
		}
		// Every node block sends halo traffic, so each LP row, in index
		// order, holds a share of the events.
		for j, lp := range st.LPs {
			if lp.LP != j || lp.Events == 0 {
				t.Errorf("%d LPs: row %d = %+v, want LP %d with events", lps, j, lp, j)
			}
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
// 4-LP run with Stats requested and with Stats nil must agree on the halo
// time, on every recorded message event, on the critical-path fraction read
// from them, and on the exported Chrome trace bytes.
func TestProfilingDoesNotChangeResults(t *testing.T) {
	run := func(stats *des.ParallelStats) (float64, *trace.Recorder) {
		rec := trace.NewRecorder()
		tm, err := HaloTime(fig6Spec(4, rec, stats))
		if err != nil {
			t.Fatalf("stats=%v: %v", stats != nil, err)
		}
		return tm, rec
	}
	var st des.ParallelStats
	tOff, recOff := run(nil)
	tOn, recOn := run(&st)
	if st.TotalEvents() == 0 {
		t.Fatalf("requested stats left empty: %+v", st)
	}
	if tOn != tOff {
		t.Errorf("halo time with stats %v != without %v", tOn, tOff)
	}
	if !reflect.DeepEqual(recOn.Messages(), recOff.Messages()) {
		t.Error("requesting stats changed the recorded message events")
	}
	if on, off := obs.Analyze(recOn.Messages()).PathFrac, obs.Analyze(recOff.Messages()).PathFrac; on != off {
		t.Errorf("critical-path fraction with stats %v != without %v", on, off)
	}
	var bufOff, bufOn bytes.Buffer
	if err := recOff.WriteChrome(&bufOff); err != nil {
		t.Fatal(err)
	}
	if err := recOn.WriteChrome(&bufOn); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufOff.Bytes(), bufOn.Bytes()) {
		t.Error("requesting stats changed the Chrome trace bytes")
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

// TestFunctionalRunProfileMatchesUnprofiled drives core.Run on a
// functional melt at 4 LPs: its virtual results must equal the 1-LP run's.
func TestFunctionalRunProfileMatchesUnprofiled(t *testing.T) {
	run := func(lps int) *RunResult {
		res, err := Run(RunSpec{
			Workload:    LJSmall(),
			TileShape:   vec.I3{X: 2, Y: 2, Z: 2},
			Variant:     sim.Opt(),
			Steps:       8,
			ParallelLPs: lps,
		})
		if err != nil {
			t.Fatalf("%d LPs: %v", lps, err)
		}
		return res
	}
	serial := run(1)
	sharded := run(4)
	if sharded.Elapsed != serial.Elapsed {
		t.Errorf("4-LP elapsed %v != 1-LP %v", sharded.Elapsed, serial.Elapsed)
	}
	if !reflect.DeepEqual(sharded.Breakdown, serial.Breakdown) {
		t.Error("4 LPs changed the stage breakdown")
	}
}
