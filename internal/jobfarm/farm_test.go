package jobfarm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tofumd/internal/md/restart"
	"tofumd/internal/metrics"
)

// fakeRunner mimics MDRunner's control flow without MD costs: it advances
// CheckpointEvery steps per segment, commits a dummy snapshot, and honors
// ctx/preempt between segments. perSegment throttles segment speed so
// tests can reliably catch jobs mid-flight.
func fakeRunner(perSegment time.Duration) Runner {
	return func(ctx context.Context, a Attempt, preempt <-chan struct{}) Outcome {
		done := a.StepsDone
		snap := a.Resume
		for done < a.Spec.Steps {
			if perSegment > 0 {
				time.Sleep(perSegment)
			}
			next := ((done / a.Spec.CheckpointEvery) + 1) * a.Spec.CheckpointEvery
			if next > a.Spec.Steps {
				next = a.Spec.Steps
			}
			done = next
			snap = &restart.Snapshot{Step: int64(done)}
			if a.Commit != nil {
				a.Commit(done, snap)
			}
			if done >= a.Spec.Steps {
				break
			}
			select {
			case <-ctx.Done():
				return Outcome{Kind: OutcomeStopped, StepsDone: done, Snapshot: snap, Err: context.Cause(ctx)}
			case <-preempt:
				return Outcome{Kind: OutcomePreempted, StepsDone: done, Snapshot: snap}
			default:
			}
		}
		return Outcome{Kind: OutcomeDone, StepsDone: done, Snapshot: snap, Perf: 1}
	}
}

func testSpec(steps int) Spec {
	return Spec{Potential: "lj", Atoms: 4000, Nodes: "2x2x2", Steps: steps, CheckpointEvery: 20}
}

// waitJob polls until the job reaches a terminal state or the predicate
// accepts its status.
func waitJob(t *testing.T, f *Farm, id string, pred func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := f.Status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if pred(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := f.Status(id)
	t.Fatalf("timeout waiting on job %s; last status %+v", id, st)
	return JobStatus{}
}

func terminal(st JobStatus) bool { return st.State.Terminal() }

func TestFarmRunsJobsToCompletion(t *testing.T) {
	f, err := New(Config{Workers: 2, Runner: fakeRunner(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := f.Submit(testSpec(100))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		st := waitJob(t, f, id, terminal)
		if st.State != Done {
			t.Errorf("%s: state %s, want done (%+v)", id, st.State, st)
		}
		if st.StepsDone != 100 {
			t.Errorf("%s: steps_done %d, want 100", id, st.StepsDone)
		}
	}
}

func TestFarmAdmissionControl(t *testing.T) {
	// No workers draining the queue: block the single worker with a long
	// job, then fill the queue.
	f, err := New(Config{Workers: 1, QueueCap: 2, Metrics: metrics.New(), Runner: fakeRunner(5 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	if _, err := f.Submit(testSpec(10_000)); err != nil {
		t.Fatal(err)
	}
	waitJob(t, f, "job-0001", func(st JobStatus) bool { return st.State == Running })
	for i := 0; i < 2; i++ {
		if _, err := f.Submit(testSpec(100)); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if _, err := f.Submit(testSpec(100)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err=%v, want ErrQueueFull", err)
	}
	m := metricCount(t, f, "shed")
	if m != 1 {
		t.Errorf("shed counter %v, want 1", m)
	}
}

func metricCount(t *testing.T, f *Farm, label string) float64 {
	t.Helper()
	for _, fam := range f.cfg.Metrics.Snapshot() {
		if fam.Name != "jobfarm_jobs" {
			continue
		}
		for _, s := range fam.Samples {
			if s.Label == label {
				return s.Value
			}
		}
	}
	return 0
}

func TestFarmValidationRejects(t *testing.T) {
	f, err := New(Config{Workers: 1, Runner: fakeRunner(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	for _, sp := range []Spec{
		{Potential: "tersoff", Atoms: 100, Nodes: "1x1x1", Steps: 10},
		{Potential: "lj", Atoms: -1, Nodes: "1x1x1", Steps: 10},
		{Potential: "lj", Atoms: 100, Nodes: "banana", Steps: 10},
		{Potential: "lj", Atoms: 100, Nodes: "2junkx2x2", Steps: 10},
		{Potential: "lj", Atoms: 100, Nodes: "2x2x2x", Steps: 10},
		{Potential: "lj", Atoms: 100, Nodes: "1x1x1", Steps: 0},
		{Potential: "lj", Atoms: 100, Nodes: "1x1x1", Steps: 10, CheckpointEvery: 7},
		{Potential: "eam", Atoms: 100, Nodes: "1x1x1", Steps: 10, CheckpointEvery: 12},
		{Potential: "lj", Atoms: 100, Nodes: "1x1x1", Steps: 10, Priority: "urgent"},
		{Potential: "lj", Atoms: 1_000_000_000, Nodes: "64x64x64", Steps: 10},
		{Potential: "lj", Atoms: MaxAtoms + 1, Nodes: "2x2x2", Steps: 10},
		{Potential: "lj", Atoms: 100, Nodes: "2x2x2", Steps: MaxSteps + 1},
		{Potential: "lj", Atoms: 100, Nodes: "4x6x5", Steps: 10},
		{Potential: "lj", Atoms: 100, Nodes: "4294967296x4294967296x1", Steps: 10},
	} {
		if _, err := f.Submit(sp); err == nil {
			t.Errorf("spec %+v: accepted, want validation error", sp)
		}
	}
	atCeiling := Spec{Potential: "lj", Atoms: MaxAtoms, Nodes: "4x6x4", Steps: MaxSteps}
	if err := atCeiling.Validate(); err != nil {
		t.Errorf("spec at every ceiling rejected: %v", err)
	}
}

func TestFarmPriorityPreemptsBestEffort(t *testing.T) {
	f, err := New(Config{Workers: 1, QueueCap: 4, Metrics: metrics.New(), Runner: fakeRunner(2 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	beID, err := f.Submit(testSpec(100_000))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, f, beID, func(st JobStatus) bool { return st.State == Running })
	prio := testSpec(40)
	prio.Priority = PriorityHigh
	prioID, err := f.Submit(prio)
	if err != nil {
		t.Fatal(err)
	}
	// The priority job must finish while the big best-effort job waits,
	// checkpointed, in the queue.
	st := waitJob(t, f, prioID, terminal)
	if st.State != Done {
		t.Fatalf("priority job: %+v, want done", st)
	}
	be := waitJob(t, f, beID, func(st JobStatus) bool { return st.Preemptions > 0 })
	if !be.HasCheckpoint {
		t.Errorf("preempted job has no checkpoint: %+v", be)
	}
	if be.State == Failed || be.State == Cancelled {
		t.Errorf("preempted job must stay schedulable, got %s", be.State)
	}
	// And it must eventually resume and make progress past its
	// preemption point.
	waitJob(t, f, beID, func(st JobStatus) bool { return st.State == Running && st.StepsDone > be.StepsDone })
	if n := metricCount(t, f, "done"); n < 1 {
		t.Errorf("done counter %v, want >= 1", n)
	}
}

func TestFarmDeadline(t *testing.T) {
	f, err := New(Config{Workers: 1, Runner: fakeRunner(5 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	sp := testSpec(1_000_000)
	sp.DeadlineSeconds = 0.05
	id, err := f.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, f, id, terminal)
	if st.State != Failed || st.Error == "" {
		t.Fatalf("deadline job: %+v, want failed with reason", st)
	}
}

func TestFarmCancel(t *testing.T) {
	f, err := New(Config{Workers: 1, QueueCap: 4, Runner: fakeRunner(5 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	runID, err := f.Submit(testSpec(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	queuedID, err := f.Submit(testSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	// Cancel the queued job before it ever runs.
	if err := f.Cancel(queuedID); err != nil {
		t.Fatal(err)
	}
	if st, _ := f.Status(queuedID); st.State != Cancelled {
		t.Fatalf("queued cancel: %+v, want cancelled", st)
	}
	// Cancel the running job: it stops at the next commit boundary.
	waitJob(t, f, runID, func(st JobStatus) bool { return st.State == Running })
	if err := f.Cancel(runID); err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, f, runID, terminal)
	if st.State != Cancelled {
		t.Fatalf("running cancel: %+v, want cancelled", st)
	}
	if err := f.Cancel("job-9999"); err == nil {
		t.Error("cancelling an unknown job must error")
	}
}

func TestFarmPanicIsolation(t *testing.T) {
	boom := func(ctx context.Context, a Attempt, preempt <-chan struct{}) Outcome {
		if a.Spec.Name == "boom" {
			panic("kaboom")
		}
		return fakeRunner(0)(ctx, a, preempt)
	}
	f, err := New(Config{Workers: 1, Runner: boom})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	bad := testSpec(100)
	bad.Name = "boom"
	badID, err := f.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, f, badID, terminal)
	if st.State != Failed {
		t.Fatalf("panicking job: %+v, want failed", st)
	}
	// The farm survives and keeps serving.
	okID, err := f.Submit(testSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, f, okID, terminal); st.State != Done {
		t.Fatalf("job after panic: %+v, want done", st)
	}
}

func TestFarmTransientRetryWithBackoff(t *testing.T) {
	var mu sync.Mutex
	attempts := map[string]int{}
	flaky := func(ctx context.Context, a Attempt, preempt <-chan struct{}) Outcome {
		mu.Lock()
		attempts[a.JobID]++
		n := attempts[a.JobID]
		mu.Unlock()
		if n <= 2 {
			return Outcome{Kind: OutcomeFailed, StepsDone: a.StepsDone, Snapshot: a.Resume,
				Err: &TransientError{Err: fmt.Errorf("flaky attempt %d", n)}}
		}
		return fakeRunner(0)(ctx, a, preempt)
	}
	f, err := New(Config{Workers: 1, MaxRetries: 2, RetryBackoff: time.Millisecond, Runner: flaky})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	id, err := f.Submit(testSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, f, id, terminal)
	if st.State != Done || st.Retries != 2 {
		t.Fatalf("flaky job: %+v, want done after 2 retries", st)
	}

	// One more transient failure than the budget: permanent failure.
	mu.Lock()
	attempts = map[string]int{}
	mu.Unlock()
	exhausted := func(ctx context.Context, a Attempt, preempt <-chan struct{}) Outcome {
		return Outcome{Kind: OutcomeFailed, StepsDone: a.StepsDone,
			Err: &TransientError{Err: errors.New("always flaky")}}
	}
	f2, err := New(Config{Workers: 1, MaxRetries: 2, RetryBackoff: time.Millisecond, Runner: exhausted})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Shutdown(context.Background())
	id2, err := f2.Submit(testSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitJob(t, f2, id2, terminal)
	if st2.State != Failed || st2.Retries != 2 {
		t.Fatalf("exhausted job: %+v, want failed after 2 retries", st2)
	}
}

// TestFarmGracefulShutdownLosesNothing floods a farm, drains it mid-load,
// and requires every accepted job to be accounted for: done, or parked
// with its progress journaled so the next boot resumes it.
func TestFarmGracefulShutdownLosesNothing(t *testing.T) {
	dir := t.TempDir()
	journal, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Workers: 2, QueueCap: 16, Journal: journal, Runner: fakeRunner(2 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	var accepted []string
	for i := 0; i < 10; i++ {
		id, err := f.Submit(testSpec(10_000))
		if err != nil {
			t.Fatal(err)
		}
		accepted = append(accepted, id)
	}
	// Let some work start, then drain.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Submissions after drain shed explicitly.
	if _, err := f.Submit(testSpec(100)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: err=%v, want ErrDraining", err)
	}
	for _, id := range accepted {
		st, ok := f.Status(id)
		if !ok {
			t.Fatalf("accepted job %s lost at shutdown", id)
		}
		switch st.State {
		case Done, Queued, Checkpointed, Retrying:
		default:
			t.Errorf("%s: state %s after drain; an accepted job must be done or resumable", id, st.State)
		}
	}

	// Reboot on the same journal: everything left over must finish.
	f2, err := New(Config{Workers: 2, QueueCap: 16, Journal: journal, Runner: fakeRunner(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Shutdown(context.Background())
	for _, id := range accepted {
		st := waitJob(t, f2, id, terminal)
		if st.State != Done {
			t.Errorf("%s after reboot: %+v, want done", id, st)
		}
	}
}

// TestFarmJournalResumesFromCommittedStep checks the adopted job resumes
// from its journaled checkpoint, not from scratch.
func TestFarmJournalResumesFromCommittedStep(t *testing.T) {
	dir := t.TempDir()
	journal, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Workers: 1, Journal: journal, Runner: fakeRunner(3 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	id, err := f.Submit(testSpec(100_000))
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, f, id, func(st JobStatus) bool { return st.StepsDone >= 20 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	var resumedFrom int
	var resumeMu sync.Mutex
	spy := func(ctx context.Context, a Attempt, preempt <-chan struct{}) Outcome {
		resumeMu.Lock()
		if a.JobID == id && resumedFrom == 0 {
			resumedFrom = a.StepsDone
			if a.Resume == nil || int(a.Resume.Step) != a.StepsDone {
				resumeMu.Unlock()
				return Outcome{Kind: OutcomeFailed, Err: fmt.Errorf("resume snapshot mismatch: %v vs %d", a.Resume, a.StepsDone)}
			}
		}
		resumeMu.Unlock()
		return fakeRunner(0)(ctx, a, preempt)
	}
	f2, err := New(Config{Workers: 1, Journal: journal, Runner: spy})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Shutdown(context.Background())
	fin := waitJob(t, f2, id, terminal)
	if fin.State != Done {
		t.Fatalf("rebooted job: %+v, want done", fin)
	}
	resumeMu.Lock()
	defer resumeMu.Unlock()
	if resumedFrom < st.StepsDone || resumedFrom == 0 {
		t.Errorf("resumed from step %d, want >= committed %d", resumedFrom, st.StepsDone)
	}
}

func TestFarmMetricsFamilies(t *testing.T) {
	met := metrics.New()
	f, err := New(Config{Workers: 1, Metrics: met, Runner: fakeRunner(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown(context.Background())
	id, err := f.Submit(testSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, f, id, terminal)
	want := map[string]bool{"jobfarm_jobs": false, "jobfarm_queue_depth": false, "jobfarm_running": false}
	for _, fam := range met.Snapshot() {
		if _, ok := want[fam.Name]; ok {
			want[fam.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("metric family %s missing", name)
		}
	}
}
