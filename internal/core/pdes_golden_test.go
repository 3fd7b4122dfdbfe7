package core

import (
	"reflect"
	"runtime"
	"testing"

	"tofumd/internal/md/sim"
	"tofumd/internal/trace"
	"tofumd/internal/vec"
)

// TestParallelHaloTimeMatchesSerialFig6 holds ModelSpec.LPs inert on the
// Fig. 6 configuration: the LJ-65K halo exchange modeled for every
// step-by-step variant must produce exactly the same virtual time with LPs
// unset and at four.
func TestParallelHaloTimeMatchesSerialFig6(t *testing.T) {
	full := LJSmall().FullShape
	tile := vec.I3{X: 4, Y: 6, Z: 4}
	perRank := float64(LJSmall().Atoms) / float64(full.Prod()*4)
	for _, v := range sim.StepByStepVariants() {
		spec := ModelSpec{Kind: LJ, Variant: v, FullShape: full, TileShape: tile, AtomsPerRank: perRank}
		serial, err := HaloTime(spec)
		if err != nil {
			t.Fatalf("%s LPs=0: %v", v.Name, err)
		}
		spec.LPs = 4
		par, err := HaloTime(spec)
		if err != nil {
			t.Fatalf("%s LPs=4: %v", v.Name, err)
		}
		if par != serial {
			t.Errorf("%s: LPs=4 halo time %v != LPs=0 %v", v.Name, par, serial)
		}
	}
}

// TestParallelHaloTraceMatchesSerial compares the recorded per-message
// events, not just the aggregate time: LPs=4 must emit the exact same trace
// LPs unset does.
func TestParallelHaloTraceMatchesSerial(t *testing.T) {
	full := LJSmall().FullShape
	tile := vec.I3{X: 4, Y: 6, Z: 4}
	perRank := float64(LJSmall().Atoms) / float64(full.Prod()*4)
	v := sim.StepByStepVariants()[0]
	run := func(lps int) []trace.MessageEvent {
		rec := trace.NewRecorder()
		spec := ModelSpec{Kind: LJ, Variant: v, FullShape: full, TileShape: tile, AtomsPerRank: perRank, Rec: rec, LPs: lps}
		if _, err := HaloTime(spec); err != nil {
			t.Fatalf("LPs=%d: %v", lps, err)
		}
		return rec.Messages()
	}
	serial := run(0)
	par := run(4)
	if len(serial) == 0 {
		t.Fatal("LPs=0 run recorded no message events")
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("LPs=4 trace differs from LPs=0 (%d vs %d messages)", len(par), len(serial))
	}
}

// TestParallelFunctionalRunMatchesSerial runs a full functional LJ melt
// through core.Run built at GOMAXPROCS 1 and 4, the host pool's worker
// count: the two must agree bit for bit on stage breakdowns, elapsed
// virtual time and the performance metric.
func TestParallelFunctionalRunMatchesSerial(t *testing.T) {
	run := func(procs int) *RunResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := Run(RunSpec{
			Workload:  LJSmall(),
			TileShape: vec.I3{X: 2, Y: 2, Z: 2},
			Variant:   sim.Opt(),
			Steps:     8,
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		return res
	}
	serial := run(1)
	par := run(4)
	if par.Elapsed != serial.Elapsed {
		t.Errorf("4 workers elapsed %v != 1 worker %v", par.Elapsed, serial.Elapsed)
	}
	if par.PerfPerDay != serial.PerfPerDay {
		t.Errorf("4 workers perf %v != 1 worker %v", par.PerfPerDay, serial.PerfPerDay)
	}
	if !reflect.DeepEqual(par.Breakdown, serial.Breakdown) {
		t.Errorf("4 workers stage breakdown differs from 1 worker:\n%+v\nvs\n%+v", par.Breakdown, serial.Breakdown)
	}
}
