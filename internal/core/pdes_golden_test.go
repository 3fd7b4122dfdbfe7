package core

import (
	"reflect"
	"testing"

	"tofumd/internal/md/sim"
	"tofumd/internal/trace"
	"tofumd/internal/vec"
)

// TestParallelHaloTimeMatchesSerialFig6 is the golden serial-vs-parallel
// check on the Fig. 6 configuration: the LJ-65K halo exchange modeled for
// every step-by-step variant must produce exactly the same virtual time on
// one LP (the serial loop) and on four.
func TestParallelHaloTimeMatchesSerialFig6(t *testing.T) {
	full := LJSmall().FullShape
	tile := vec.I3{X: 4, Y: 6, Z: 4}
	perRank := float64(LJSmall().Atoms) / float64(full.Prod()*4)
	for _, v := range sim.StepByStepVariants() {
		spec := ModelSpec{Kind: LJ, Variant: v, FullShape: full, TileShape: tile, AtomsPerRank: perRank}
		serial, err := HaloTime(spec)
		if err != nil {
			t.Fatalf("%s serial: %v", v.Name, err)
		}
		spec.LPs = 4
		par, err := HaloTime(spec)
		if err != nil {
			t.Fatalf("%s parallel: %v", v.Name, err)
		}
		if par != serial {
			t.Errorf("%s: 4-LP halo time %v != serial %v", v.Name, par, serial)
		}
	}
}

// TestParallelHaloTraceMatchesSerial compares the recorded per-message
// events, not just the aggregate time: four LPs must emit the exact same
// trace one LP does.
func TestParallelHaloTraceMatchesSerial(t *testing.T) {
	full := LJSmall().FullShape
	tile := vec.I3{X: 4, Y: 6, Z: 4}
	perRank := float64(LJSmall().Atoms) / float64(full.Prod()*4)
	v := sim.StepByStepVariants()[0]
	run := func(lps int) []trace.MessageEvent {
		rec := trace.NewRecorder()
		spec := ModelSpec{Kind: LJ, Variant: v, FullShape: full, TileShape: tile, AtomsPerRank: perRank, Rec: rec, LPs: lps}
		if _, err := HaloTime(spec); err != nil {
			t.Fatalf("%d LPs: %v", lps, err)
		}
		return rec.Messages()
	}
	serial := run(0)
	par := run(4)
	if len(serial) == 0 {
		t.Fatal("serial run recorded no message events")
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("4-LP trace differs from serial (%d vs %d messages)", len(par), len(serial))
	}
}

// TestParallelFunctionalRunMatchesSerial runs a full functional LJ melt
// through core.Run on one LP and on four: stage breakdowns, elapsed virtual
// time and the performance metric must be bit-identical.
func TestParallelFunctionalRunMatchesSerial(t *testing.T) {
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
	serial := run(0)
	par := run(4)
	if par.Elapsed != serial.Elapsed {
		t.Errorf("4-LP elapsed %v != serial %v", par.Elapsed, serial.Elapsed)
	}
	if par.PerfPerDay != serial.PerfPerDay {
		t.Errorf("4-LP perf %v != serial %v", par.PerfPerDay, serial.PerfPerDay)
	}
	if !reflect.DeepEqual(par.Breakdown, serial.Breakdown) {
		t.Errorf("4-LP stage breakdown differs from serial:\n%+v\nvs\n%+v", par.Breakdown, serial.Breakdown)
	}
}
