package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"tofumd/internal/des"
	"tofumd/internal/halo"
	"tofumd/internal/md/sim"
	"tofumd/internal/trace"
	"tofumd/internal/vec"
)

// sameResult reports how got differs from want in Elapsed or any stage,
// bit for bit, or "" if it does not.
func sameResult(got, want *RunResult) string {
	if math.Float64bits(got.Elapsed) != math.Float64bits(want.Elapsed) {
		return fmt.Sprintf("Elapsed %v, want %v", got.Elapsed, want.Elapsed)
	}
	for _, st := range trace.Stages() {
		if g, w := got.Breakdown.Get(st), want.Breakdown.Get(st); math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("stage %s %v, want %v", st, g, w)
		}
	}
	return ""
}

// poison overwrites what a call leaves in w with values no call computes:
// every assignment on thread 1 and TNI 1, and every transfer record's
// routing, size and outputs (ReadyAt and Attempt, which no
// modeled call writes, stay zero). A later call that reads one before writing it reads
// a wrong value, whatever the earlier call's values were.
func poison(w *modelWork) {
	for i := range w.fwd {
		w.fwd[i], w.rev[i] = halo.Res{Thread: 1, TNI: 1}, halo.Res{Thread: 1, TNI: 1}
	}
	for i := range w.recs {
		r := &w.recs[i]
		r.Src, r.Dst, r.TNI, r.VCQ, r.Thread, r.DstThread, r.Bytes = 1, 1, 1, 1, 1, 1, 1<<20
		r.IssueDone, r.Arrival, r.RecvComplete, r.Dropped, r.Nacked, r.TwoStep = 1, 1, 1, true, true, true
	}
}

// TestModeledReusedWorkspaceMatchesFresh runs a large P2P spec, a small
// staged one with three shells (nine rounds) in the linear
// placement, and the large one again, each on one workspace kept from call
// to call and poisoned between calls, and holds every result to the
// reference rounds on fresh storage. A plan, assignment or record left
// over from the previous call would show.
func TestModeledReusedWorkspaceMatchesFresh(t *testing.T) {
	full := vec.I3{X: 8, Y: 12, Z: 8}
	big := ModelSpec{Kind: EAM, Variant: sim.Opt(), FullShape: full, TileShape: full,
		AtomsPerRank: 65536.0 / 3072.0, Steps: 100}
	small := ModelSpec{Kind: LJ, Variant: sim.Ref(), FullShape: full, TileShape: vec.I3{X: 2, Y: 3, Z: 2},
		AtomsPerRank: 2, Steps: 100, LinearMap: true}
	w := new(modelWork)
	for i, spec := range []ModelSpec{big, small, big} {
		name := fmt.Sprintf("call %d (%s %s)", i, spec.Kind, spec.Variant.Name)
		poison(w)
		ms, err := spec.setup(w)
		if err != nil {
			t.Fatal(err)
		}
		if spec == small && len(ms.plan.Rounds) != 9 {
			t.Fatalf("%s: %d rounds, want 9", name, len(ms.plan.Rounds))
		}
		if d := sameResult(spec.modeled(ms, ms.rounds), refModeled(t, spec)); d != "" {
			t.Errorf("%s: Modeled on the kept workspace: %s", name, d)
		}
		poison(w)
		if ms, err = spec.setup(w); err != nil {
			t.Fatal(err)
		}
		if got, want := spec.haloTime(ms, ms.rounds), refHaloTime(t, spec); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: HaloTime on the kept workspace %v, want %v", name, got, want)
		}
		// The pooled entry points, which may or may not draw this workspace.
		got, err := Modeled(spec)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameResult(got, refModeled(t, spec)); d != "" {
			t.Errorf("%s: Modeled: %s", name, d)
		}
	}
}

// TestModeledConcurrentCallsMatchSerial runs Modeled and HaloTime on four
// goroutines at once over mixed specs, P2P and staged, some counting
// events into Stats, and holds every result and event count to a serial
// run of the same specs: calls share only the workspace pool.
func TestModeledConcurrentCallsMatchSerial(t *testing.T) {
	full := vec.I3{X: 8, Y: 12, Z: 8}
	tile := vec.I3{X: 2, Y: 3, Z: 2}
	per := 65536.0 / 3072.0
	specs := []ModelSpec{
		{Kind: LJ, Variant: sim.Ref(), TileShape: tile, AtomsPerRank: per},
		{Kind: EAM, Variant: sim.Opt(), TileShape: tile, AtomsPerRank: per},
		{Kind: LJ, Variant: sim.Ref(), TileShape: tile, AtomsPerRank: 2, LinearMap: true},
		{Kind: EAM, Variant: sim.Ref(), TileShape: vec.I3{X: 4, Y: 6, Z: 4}, AtomsPerRank: per},
		{Kind: LJ, Variant: sim.Opt(), TileShape: vec.I3{X: 4, Y: 6, Z: 4}, AtomsPerRank: per},
	}
	type reading struct {
		res    *RunResult
		halo   float64
		events int64
	}
	// call runs spec k, with Stats when k is odd.
	call := func(k int) (reading, error) {
		spec := specs[k]
		spec.FullShape, spec.Steps = full, 100
		var st des.ParallelStats
		if k%2 == 1 {
			spec.Stats = &st
		}
		res, err := Modeled(spec)
		if err != nil {
			return reading{}, err
		}
		events := st.Events
		h, err := HaloTime(spec)
		return reading{res, h, events + st.Events}, err
	}
	want := make([]reading, len(specs))
	for k := range specs {
		r, err := call(k)
		if err != nil {
			t.Fatal(err)
		}
		if k%2 == 1 && r.events == 0 {
			t.Fatalf("spec %d: Stats counted no events", k)
		}
		want[k] = r
	}
	const goroutines, rounds = 4, 2
	errs := make(chan string, goroutines*rounds*len(specs))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds*len(specs); i++ {
				k := (g + i) % len(specs)
				got, err := call(k)
				switch {
				case err != nil:
					errs <- fmt.Sprintf("spec %d: %v", k, err)
				case sameResult(got.res, want[k].res) != "":
					errs <- fmt.Sprintf("spec %d on goroutine %d: %s", k, g, sameResult(got.res, want[k].res))
				case math.Float64bits(got.halo) != math.Float64bits(want[k].halo):
					errs <- fmt.Sprintf("spec %d on goroutine %d: HaloTime %v, serial %v", k, g, got.halo, want[k].halo)
				case got.events != want[k].events:
					errs <- fmt.Sprintf("spec %d on goroutine %d: %d events, serial %d", k, g, got.events, want[k].events)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
