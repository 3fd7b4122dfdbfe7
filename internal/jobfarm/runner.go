package jobfarm

import (
	"context"
	"fmt"

	"tofumd/internal/core"
	"tofumd/internal/md/restart"
	"tofumd/internal/md/sim"
)

// OutcomeKind classifies how an attempt ended.
type OutcomeKind int

const (
	// OutcomeDone: all steps completed.
	OutcomeDone OutcomeKind = iota
	// OutcomePreempted: yielded at a commit boundary with a snapshot.
	OutcomePreempted
	// OutcomeStopped: the context was cancelled (client cancel or
	// deadline); the snapshot preserves committed progress.
	OutcomeStopped
	// OutcomeFailed: the attempt errored; Err says why.
	OutcomeFailed
)

// Outcome is the result of one attempt.
type Outcome struct {
	Kind OutcomeKind
	// StepsDone is the committed progress (always a commit boundary,
	// except == Spec.Steps when done).
	StepsDone int
	// Snapshot is the last committed checkpoint (nil only when the
	// attempt failed before its first commit).
	Snapshot *restart.Snapshot
	Err      error
	// Perf is ns/day over the whole job, set when done.
	Perf float64
	// Elapsed is the virtual fabric seconds this attempt consumed.
	Elapsed float64
}

// Attempt is one execution lease on a job.
type Attempt struct {
	JobID string
	Spec  Spec
	// Resume is the checkpoint to start from (nil = from scratch).
	Resume *restart.Snapshot
	// StepsDone is the committed progress Resume represents.
	StepsDone int
	// ElapsedPrior is the virtual fabric seconds consumed by earlier
	// attempts, so the final ns/day metric spans the whole job.
	ElapsedPrior float64
	// Commit, when non-nil, is called at every checkpoint commit with the
	// new progress — the farm uses it to publish live status and persist
	// the checkpoint so even a hard crash loses at most one interval.
	Commit func(steps int, snap *restart.Snapshot)
}

// Runner executes one attempt. It must honor ctx (stop at the next commit
// boundary, OutcomeStopped) and the preempt signal (checkpoint at the
// next commit boundary, OutcomePreempted). Closing over fake runners lets
// farm tests exercise scheduling without MD costs.
type Runner func(ctx context.Context, a Attempt, preempt <-chan struct{}) Outcome

// TransientError marks a failure worth retrying (resource pressure,
// injected faults). The farm retries transient failures with exponential
// backoff up to the job's budget; all other errors fail the job at once.
type TransientError struct{ Err error }

func (e *TransientError) Error() string { return "transient: " + e.Err.Error() }
func (e *TransientError) Unwrap() error { return e.Err }

// MDRunner runs the attempt as a real simulation in committed segments of
// CheckpointEvery steps. Every segment ends with a capture, and the next
// segment rebuilds from that capture — so the trajectory never depends on
// where (or whether) an interruption happened, and a preempted+resumed
// job is bit-identical to an uninterrupted one.
func MDRunner(ctx context.Context, a Attempt, preempt <-chan struct{}) Outcome {
	sp := a.Spec
	kind := sp.Kind()
	shape := sp.Shape()
	variant, err := sim.VariantByName(sp.Variant)
	if err != nil {
		return Outcome{Kind: OutcomeFailed, StepsDone: a.StepsDone, Snapshot: a.Resume, Err: err}
	}
	snap := a.Resume
	done := a.StepsDone
	var elapsed float64
	for done < sp.Steps {
		next := ((done / sp.CheckpointEvery) + 1) * sp.CheckpointEvery
		if next > sp.Steps {
			next = sp.Steps
		}
		run, err := core.Start(core.RunSpec{
			Workload: core.Workload{
				Name:      sp.Name,
				Kind:      kind,
				Atoms:     sp.Atoms,
				FullShape: shape,
				Steps:     next - done,
			},
			TileShape: shape,
			Variant:   variant,
			Restart:   snap,
		})
		if err != nil {
			return Outcome{Kind: OutcomeFailed, StepsDone: done, Snapshot: snap, Err: fmt.Errorf("segment at step %d: %w", done, err), Elapsed: elapsed}
		}
		for run.StepsDone() < run.StepsPlanned() {
			run.Step()
		}
		done = next
		elapsed += run.Sim().ElapsedMax()
		// Commit: the next segment rebuilds from this capture even when
		// nothing interrupts us — that is what makes preemption at a
		// commit boundary physically invisible.
		snap = run.Capture(done)
		run.Close()
		if a.Commit != nil {
			a.Commit(done, snap)
		}
		if done >= sp.Steps {
			break
		}
		select {
		case <-ctx.Done():
			return Outcome{Kind: OutcomeStopped, StepsDone: done, Snapshot: snap, Err: context.Cause(ctx), Elapsed: elapsed}
		case <-preempt:
			return Outcome{Kind: OutcomePreempted, StepsDone: done, Snapshot: snap, Elapsed: elapsed}
		default:
		}
	}
	cfg, err := core.BaseConfig(kind)
	if err != nil {
		return Outcome{Kind: OutcomeFailed, StepsDone: done, Snapshot: snap, Err: err, Elapsed: elapsed}
	}
	return Outcome{
		Kind:      OutcomeDone,
		StepsDone: done,
		Snapshot:  snap,
		Perf:      core.PerfPerDay(kind, sp.Steps, cfg.Dt, a.ElapsedPrior+elapsed),
		Elapsed:   elapsed,
	}
}
