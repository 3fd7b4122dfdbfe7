package restart

import (
	"testing"

	"tofumd/internal/faultinject"
	"tofumd/internal/md/sim"
	"tofumd/internal/vec"
)

// TestRankFailRollbackRecovery is the tentpole rankfail guarantee: when a
// rank fail-stops mid-run, RunWithRecovery rolls back to the last
// checkpoint, rebuilds the decomposition on a smaller machine without the
// failed rank's node, resumes, and the recovered trajectory is bit-identical
// to an unfailed run restarted from the same snapshot.
func TestRankFailRollbackRecovery(t *testing.T) {
	cfg := testConfig()
	cfg.NeighEvery = 5 // align rebuild cadence with the checkpoint cadence

	// Measure step 10's virtual time on a clean run and keep its snapshot
	// as the independent control state; the rank failure is injected at
	// exactly that time, so the recovery rolls back to the same point.
	clean := newSim(t, cfg)
	clean.Run(10)
	failT := clean.Now()
	snap10 := Capture(clean, 10)

	// Rebuild resumes on a 2x2x1 machine: the failed rank's node layer is
	// dropped and the survivors renumbered, so the stale rank indices (and
	// the rankfail terms naming them) must not carry over.
	rebuild := func(snap *Snapshot) (*sim.Simulation, error) {
		cfg2 := testConfig()
		cfg2.NeighEvery = 5
		if err := snap.Apply(&cfg2); err != nil {
			return nil, err
		}
		m, err := sim.NewMachine(vec.I3{X: 2, Y: 2, Z: 1})
		if err != nil {
			return nil, err
		}
		return sim.New(m, sim.Opt(), cfg2)
	}

	spec := faultinject.Spec{Seed: 11, RankFails: []faultinject.RankFail{{Rank: 3, At: failT}}}
	s := newSim(t, cfg)
	s.SetFaults(faultinject.New(spec))
	got, rollbacks, err := RunWithRecovery(s, 20, RecoveryOptions{
		CheckpointEvery: 5,
		Rebuild: func(snap *Snapshot, failed []int) (*sim.Simulation, error) {
			if len(failed) != 1 || failed[0] != 3 {
				t.Errorf("failed ranks %v, want [3]", failed)
			}
			if int(snap.Step) != 10 {
				t.Errorf("rolled back to step %d, want the step-10 checkpoint", snap.Step)
			}
			rb, err := rebuild(snap)
			if err == nil {
				rb.SetFaults(faultinject.New(spec.WithoutRankFails()))
			}
			return rb, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		defer got.Close()
	}
	if rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", rollbacks)
	}

	control, err := rebuild(snap10)
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	control.Run(10)

	want, have := control.Gather(), got.Gather()
	if len(want) != len(have) {
		t.Fatalf("recovered run has %d atoms, control %d", len(have), len(want))
	}
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("recovered trajectory diverged at atom %d: %+v != %+v", want[i].ID, have[i], want[i])
		}
	}
	if ge, we := got.TotalEnergyPerAtom(), control.TotalEnergyPerAtom(); ge != we {
		t.Errorf("recovered energy/atom %v != control %v", ge, we)
	}
}

// TestRunWithRecoveryBackToBackPreemptions checkpoints, resumes, and is
// preempted again the instant the resume comes up (the second rank failure
// fires at exactly the resume's virtual time, before a single step runs).
// Both rollbacks must land on the same step-10 snapshot and the doubly
// recovered trajectory must stay bit-identical to a control resumed once
// from that snapshot — resuming is idempotent, no matter how quickly
// preemptions stack up.
func TestRunWithRecoveryBackToBackPreemptions(t *testing.T) {
	cfg := testConfig()
	cfg.NeighEvery = 5

	clean := newSim(t, cfg)
	clean.Run(10)
	failT := clean.Now()
	snap10 := Capture(clean, 10)

	rebuild := func(snap *Snapshot) (*sim.Simulation, error) {
		cfg2 := testConfig()
		cfg2.NeighEvery = 5
		if err := snap.Apply(&cfg2); err != nil {
			return nil, err
		}
		m, err := sim.NewMachine(vec.I3{X: 2, Y: 2, Z: 2})
		if err != nil {
			return nil, err
		}
		return sim.New(m, sim.Opt(), cfg2)
	}

	// Checkpoint → resume → immediately checkpoint again: the snapshot
	// taken from a freshly resumed simulation, before any step, must be
	// bit-identical to the snapshot it resumed from.
	probe, err := rebuild(snap10)
	if err != nil {
		t.Fatal(err)
	}
	resnap := Capture(probe, 10)
	probe.Close()
	wantAtoms, haveAtoms := snap10.Atoms, resnap.Atoms
	if len(wantAtoms) != len(haveAtoms) {
		t.Fatalf("recaptured snapshot has %d atoms, original %d", len(haveAtoms), len(wantAtoms))
	}
	for i := range wantAtoms {
		if haveAtoms[i] != wantAtoms[i] {
			t.Fatalf("checkpoint of a fresh resume differs at atom %d: %+v != %+v", i, haveAtoms[i], wantAtoms[i])
		}
	}

	// First failure stops rank 3 at step 10's time; the rebuild strips it
	// but injects a second failure at virtual time zero — a rebuilt
	// simulation's clock restarts at 0, so the resume is preempted again
	// before it advances a single step.
	spec1 := faultinject.Spec{Seed: 11, RankFails: []faultinject.RankFail{{Rank: 3, At: failT}}}
	spec2 := faultinject.Spec{Seed: 11, RankFails: []faultinject.RankFail{{Rank: 1, At: 0}}}
	s := newSim(t, cfg)
	s.SetFaults(faultinject.New(spec1))
	rebuilds := 0
	got, rollbacks, err := RunWithRecovery(s, 20, RecoveryOptions{
		CheckpointEvery: 5,
		Rebuild: func(snap *Snapshot, failed []int) (*sim.Simulation, error) {
			rebuilds++
			if int(snap.Step) != 10 {
				t.Errorf("rollback %d used the step-%d snapshot, want step 10", rebuilds, snap.Step)
			}
			rb, err := rebuild(snap)
			if err != nil {
				return nil, err
			}
			if rebuilds == 1 {
				rb.SetFaults(faultinject.New(spec2)) // fires immediately on resume
			}
			return rb, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		defer got.Close()
	}
	if rollbacks != 2 || rebuilds != 2 {
		t.Fatalf("rollbacks/rebuilds = %d/%d, want 2/2 (back-to-back preemptions)", rollbacks, rebuilds)
	}

	control, err := rebuild(snap10)
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	control.Run(10)

	want, have := control.Gather(), got.Gather()
	if len(want) != len(have) {
		t.Fatalf("doubly recovered run has %d atoms, control %d", len(have), len(want))
	}
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("doubly recovered trajectory diverged at atom %d: %+v != %+v", want[i].ID, have[i], want[i])
		}
	}
}

// TestRunWithRecoveryBudget exhausts the rollback budget: a Rebuild that
// keeps the rank failure in the fault spec can never make progress, and the
// driver must give up with an error instead of looping.
func TestRunWithRecoveryBudget(t *testing.T) {
	cfg := testConfig()
	cfg.NeighEvery = 5
	spec := faultinject.Spec{Seed: 1, RankFails: []faultinject.RankFail{{Rank: 0, At: 0}}}
	s := newSim(t, cfg)
	s.SetFaults(faultinject.New(spec))
	rebuilds := 0
	last, rollbacks, err := RunWithRecovery(s, 10, RecoveryOptions{
		CheckpointEvery: 5,
		MaxRollbacks:    2,
		Rebuild: func(snap *Snapshot, failed []int) (*sim.Simulation, error) {
			rebuilds++
			cfg2 := testConfig()
			cfg2.NeighEvery = 5
			if err := snap.Apply(&cfg2); err != nil {
				return nil, err
			}
			m, err := sim.NewMachine(vec.I3{X: 2, Y: 2, Z: 2})
			if err != nil {
				return nil, err
			}
			rb, err := sim.New(m, sim.Opt(), cfg2)
			if err == nil {
				rb.SetFaults(faultinject.New(spec)) // failure NOT stripped
			}
			return rb, err
		},
	})
	if last != nil && last != s {
		defer last.Close()
	}
	if err == nil {
		t.Fatal("driver did not give up on an unrecoverable failure")
	}
	if rollbacks != 2 || rebuilds != 2 {
		t.Errorf("rollbacks/rebuilds = %d/%d, want 2/2", rollbacks, rebuilds)
	}
}
