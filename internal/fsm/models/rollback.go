package models

import (
	"fmt"

	"tofumd/internal/fsm"
)

// The rollback model encodes restart.RunWithRecovery's checkpoint-rollback
// epoch selection: a snapshot commits at step 0 and every CheckpointEvery
// steps, a fail-stop detected at a step boundary rolls the run back to the
// last committed snapshot (consuming one unit of the rollback budget), and
// an exhausted budget gives up. The environment may inject a failure at
// any boundary, so the checker explores every failure schedule.

// Rollback phases.
const (
	RBRunning uint8 = iota
	RBDone          // terminal: steps completed
	RBGaveUp        // terminal: rollback budget exhausted
)

// RollbackConfig binds the run length, checkpoint cadence, and budget.
type RollbackConfig struct {
	Steps           int // total steps to advance
	CheckpointEvery int // snapshot cadence (restart default 10)
	MaxRollbacks    int // recovery budget (restart default 3)

	// MutateResumeFromCurrentStep seeds a bug: rollback "resumes" from the
	// aborted epoch's current step instead of the committed snapshot —
	// recovering onto uncommitted state.
	MutateResumeFromCurrentStep bool
	// MutateSnapshotFinalStep seeds a subtler bug: the final step's
	// snapshot is committed even though the run is about to finish,
	// diverging from the implementation (which skips it: step < steps).
	MutateSnapshotFinalStep bool
}

// RollbackState is the driver loop's observable state.
type RollbackState struct {
	Phase     uint8
	Step      uint8 // current step
	LastSnap  uint8 // step of the last committed snapshot
	Rollbacks uint8
	// FailPending reports a fail-stop detected and not yet recovered from.
	FailPending bool
}

func (c RollbackConfig) validate() {
	if c.Steps < 1 || c.Steps > 40 || c.CheckpointEvery < 1 || c.MaxRollbacks < 0 || c.MaxRollbacks > 10 {
		panic(fmt.Sprintf("models: rollback config %+v outside the bound range", c))
	}
}

// System builds the rollback transition system. The "fail" rule is the
// environment (a fail-stop surfacing at a boundary); the rest are the
// driver's moves, which mirror RunWithRecovery's loop ordering: failures
// are handled before the step-limit check, so a failure pending at the
// finish line still forces a recovery.
func (c RollbackConfig) System() fsm.System[RollbackState] {
	c.validate()
	one := func(s RollbackState) []RollbackState { return []RollbackState{s} }
	rules := []fsm.Rule[RollbackState]{
		{
			Name: "fail",
			Guard: func(s RollbackState) bool {
				return s.Phase == RBRunning && !s.FailPending
			},
			Next: func(s RollbackState) []RollbackState {
				s.FailPending = true
				return one(s)
			},
		},
		{
			Name: "rollback",
			Guard: func(s RollbackState) bool {
				return s.Phase == RBRunning && s.FailPending && int(s.Rollbacks) < c.MaxRollbacks
			},
			Next: func(s RollbackState) []RollbackState {
				s.Rollbacks++
				if !c.MutateResumeFromCurrentStep {
					s.Step = s.LastSnap
				}
				s.FailPending = false // rebuild excludes the failed node
				return one(s)
			},
		},
		{
			Name: "give-up",
			Guard: func(s RollbackState) bool {
				return s.Phase == RBRunning && s.FailPending && int(s.Rollbacks) >= c.MaxRollbacks
			},
			Next: func(s RollbackState) []RollbackState {
				s.Phase = RBGaveUp
				return one(s)
			},
		},
		{
			Name: "step",
			Guard: func(s RollbackState) bool {
				return s.Phase == RBRunning && !s.FailPending && int(s.Step) < c.Steps
			},
			Next: func(s RollbackState) []RollbackState {
				s.Step++
				commit := int(s.Step)%c.CheckpointEvery == 0 &&
					(int(s.Step) < c.Steps || c.MutateSnapshotFinalStep)
				if commit {
					s.LastSnap = s.Step
				}
				return one(s)
			},
		},
		{
			Name: "finish",
			Guard: func(s RollbackState) bool {
				return s.Phase == RBRunning && !s.FailPending && int(s.Step) >= c.Steps
			},
			Next: func(s RollbackState) []RollbackState {
				s.Phase = RBDone
				return one(s)
			},
		},
	}
	return fsm.System[RollbackState]{
		Name:  fmt.Sprintf("rollback steps=%d every=%d budget=%d", c.Steps, c.CheckpointEvery, c.MaxRollbacks),
		Init:  []RollbackState{{Phase: RBRunning}},
		Rules: rules,
	}
}

// Invariants returns the recovery protocol's properties: committed-epoch
// monotonicity, checkpoint alignment, resume-from-committed-state, a
// bounded budget spent only when genuinely exhausted, and bounded
// termination possibility.
func (c RollbackConfig) Invariants() []fsm.Invariant[RollbackState] {
	c.validate()
	terminal := func(s RollbackState) bool { return s.Phase == RBDone || s.Phase == RBGaveUp }
	return []fsm.Invariant[RollbackState]{
		// The committed epoch never runs ahead of the trajectory and never
		// moves backward: rollback re-executes forward from it.
		fsm.Always("snapshot-behind-step", func(s RollbackState) bool {
			return s.LastSnap <= s.Step
		}),
		fsm.AlwaysStep("epoch-monotone", func(from RollbackState, _ string, to RollbackState) bool {
			return to.LastSnap >= from.LastSnap
		}),
		fsm.Always("snapshot-aligned", func(s RollbackState) bool {
			// Snapshots commit only at cadence boundaries strictly before
			// the finish line (plus the initial step-0 capture).
			if int(s.LastSnap)%c.CheckpointEvery != 0 {
				return false
			}
			return int(s.LastSnap) < c.Steps || c.Steps%c.CheckpointEvery != 0
		}),
		fsm.AlwaysStep("resume-from-committed", func(from RollbackState, rule string, to RollbackState) bool {
			return rule != "rollback" || to.Step == from.LastSnap
		}),
		fsm.Always("rollbacks-bounded", func(s RollbackState) bool {
			return int(s.Rollbacks) <= c.MaxRollbacks
		}),
		fsm.Always("gave-up-only-exhausted", func(s RollbackState) bool {
			return s.Phase != RBGaveUp || int(s.Rollbacks) == c.MaxRollbacks
		}),
		// From any state the driver can terminate by stepping cleanly to
		// the finish line, or by exhausting the budget: at most one
		// recovery move plus the full run plus the finish move.
		fsm.EventuallyWithin("terminates", c.Steps+2, terminal),
	}
}
