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
// configuration: the event count must not move with the inert LPs knob, and
// requesting it must not perturb any observable result — times, message
// traces, or the exported Chrome bytes.

func fig6Spec(lps int, rec *trace.Recorder, stats *des.ParallelStats) ModelSpec {
	full := LJSmall().FullShape
	return ModelSpec{
		Kind: LJ, Variant: sim.StepByStepVariants()[0],
		FullShape: full, TileShape: vec.I3{X: 4, Y: 6, Z: 4},
		AtomsPerRank: float64(LJSmall().Atoms) / float64(full.Prod()*4),
		LPs:          lps, Rec: rec, Stats: stats,
	}
}

// TestParallelStatsTotalsInvariantAcrossLPCounts holds ModelSpec.LPs
// inert: the same halo exchange run with LPs 0, 1, 2, 4 and 8 fills Stats
// with the same event count.
func TestParallelStatsTotalsInvariantAcrossLPCounts(t *testing.T) {
	var ref des.ParallelStats
	for i, lps := range []int{0, 1, 2, 4, 8} {
		var st des.ParallelStats
		if _, err := HaloTime(fig6Spec(lps, nil, &st)); err != nil {
			t.Fatalf("LPs=%d: %v", lps, err)
		}
		if st.TotalEvents() == 0 {
			t.Fatalf("LPs=%d: empty profile %+v", lps, st)
		}
		if i == 0 {
			ref = st
			continue
		}
		if st != ref {
			t.Errorf("LPs=%d: %+v != LPs=0 %+v", lps, st, ref)
		}
	}
}

// TestProfilingDoesNotChangeResults is the bit-identity golden: the same
// run with Stats requested and with Stats nil must agree on the halo
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
// delivers the event count through ModelSpec.Stats, the same with the inert
// LPs set or left at its zero value.
func TestModeledRunFillsStats(t *testing.T) {
	full := LJSmall().FullShape
	var ref des.ParallelStats
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
		if st.TotalEvents() == 0 {
			t.Errorf("LPs=%d: Modeled left stats empty: %+v", lps, st)
		}
		if lps == 0 {
			ref = st
		} else if st != ref {
			t.Errorf("LPs=%d: stats %+v != LPs=0 %+v", lps, st, ref)
		}
	}
}

// TestFunctionalRunProfileMatchesUnprofiled drives core.Run on a
// functional melt with the inert ParallelLPs at 4: its virtual results must
// equal the ParallelLPs=1 run's.
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
			t.Fatalf("ParallelLPs=%d: %v", lps, err)
		}
		return res
	}
	serial := run(1)
	sharded := run(4)
	if sharded.Elapsed != serial.Elapsed {
		t.Errorf("ParallelLPs=4 elapsed %v != ParallelLPs=1 %v", sharded.Elapsed, serial.Elapsed)
	}
	if !reflect.DeepEqual(sharded.Breakdown, serial.Breakdown) {
		t.Error("ParallelLPs=4 changed the stage breakdown")
	}
}
