// Package jobfarm is the simulation-as-a-service layer: a bounded worker
// pool that runs MD jobs described by JSON specs, with admission control,
// per-job deadlines, checkpoint-based preemption/resume, bounded retries,
// panic isolation, and a graceful drain that checkpoints in-flight work.
//
// The job lifecycle (queued → running → {preempting → checkpointed →
// queued} → {done | failed | retrying | cancelled}) is modeled in
// internal/fsm/models and conformance-replayed against the real Scheduler.
//
// Trajectory determinism: the MD runner commits the simulation at every
// checkpoint interval — it captures a snapshot and rebuilds the next
// segment from it even when nothing interrupted the run. A preemption at a
// commit boundary is therefore physically invisible: the trajectory is a
// pure function of (spec, checkpoint cadence), and a preempted+resumed job
// is bit-identical to an uninterrupted one.
package jobfarm

import (
	"fmt"

	"tofumd/internal/core"
	"tofumd/internal/md/sim"
	"tofumd/internal/vec"
)

// Priority classes. Priority jobs may preempt best-effort ones.
const (
	PriorityBestEffort = "best-effort"
	PriorityHigh       = "priority"
)

// Admission ceilings. A spec past one is rejected before a worker builds
// it: the farm's workers share one host, and a job's live heap grows with
// both its rank count and its atom count. The readings they scale from are
// the harness's: 83 MB live for 8 k atoms on 256 ranks (lj_strong) and
// 46 MB for 32 k atoms on 32 ranks (lj_dense).
const (
	// MaxNodes is the node-count ceiling: the 4×6×4 functional tile. At
	// 256 ranks per 83 MB the per-rank share is about 0.3 MB, so 96 nodes
	// of 4 ranks (384 ranks) hold near 125 MB before atoms.
	MaxNodes = 96
	// MaxAtoms is the atom-count ceiling, 4× lj_dense's 32 k: at its
	// 46 MB that is near 190 MB, so a ceiling job stays under a few
	// hundred MB on any allowed shape.
	MaxAtoms = 131_072
	// MaxSteps is the step ceiling. Steps cost time, not memory (a job
	// commits and rebuilds at each checkpoint), so it only bounds how long
	// one admission can hold a worker.
	MaxSteps = 1_000_000
)

// Spec is the JSON job description clients POST to /jobs.
type Spec struct {
	// Name is a client-chosen label (optional, shown in status).
	Name string `json:"name,omitempty"`
	// Potential selects the benchmark family: "lj" or "eam".
	Potential string `json:"potential"`
	// Atoms is the particle count for the run.
	Atoms int `json:"atoms"`
	// Nodes is the node shape, "XxYxZ" (e.g. "2x2x2").
	Nodes string `json:"nodes"`
	// Steps is the number of MD steps.
	Steps int `json:"steps"`
	// Variant names the comm variant (default "opt").
	Variant string `json:"variant,omitempty"`
	// Priority is "best-effort" (default) or "priority".
	Priority string `json:"priority,omitempty"`
	// CheckpointEvery is the commit cadence in steps; it must be a
	// multiple of the potential's reneighbor interval so resume stays
	// bit-identical. 0 picks a kind-appropriate default.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// DeadlineSeconds fails the job if it is not done this many wall
	// seconds after admission (0 = no deadline).
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// MaxRetries bounds transient-failure retries: 0 (omitted) inherits
	// the farm default, -1 disables retries.
	MaxRetries int `json:"max_retries,omitempty"`
}

// Kind resolves the potential family. Call only after Validate.
func (sp *Spec) Kind() core.Kind {
	kind, _ := core.ParseKind(sp.Potential)
	return kind
}

// Shape resolves the node shape. Call only after Validate.
func (sp *Spec) Shape() vec.I3 {
	shape, _ := core.ParseShape(sp.Nodes)
	return shape
}

// Validate normalizes defaults and rejects malformed specs. It is the
// single admission gate: a Spec that passes is runnable as-is.
func (sp *Spec) Validate() error {
	if sp.Potential == "" {
		sp.Potential = "lj"
	}
	if _, err := core.ParseKind(sp.Potential); err != nil {
		return err
	}
	if sp.Atoms <= 0 {
		return fmt.Errorf("atoms %d: must be positive", sp.Atoms)
	}
	if sp.Atoms > MaxAtoms {
		return fmt.Errorf("atoms %d: above the ceiling of %d", sp.Atoms, MaxAtoms)
	}
	if sp.Steps <= 0 {
		return fmt.Errorf("steps %d: must be positive", sp.Steps)
	}
	if sp.Steps > MaxSteps {
		return fmt.Errorf("steps %d: above the ceiling of %d", sp.Steps, MaxSteps)
	}
	if sp.Nodes == "" {
		sp.Nodes = "2x2x2"
	}
	shape, err := core.ParseShape(sp.Nodes)
	if err != nil {
		return err
	}
	// Each axis is bounded first, so the product cannot overflow.
	if shape.X > MaxNodes || shape.Y > MaxNodes || shape.Z > MaxNodes || shape.Prod() > MaxNodes {
		return fmt.Errorf("nodes %s: above the ceiling of %d nodes", sp.Nodes, MaxNodes)
	}
	if sp.Variant == "" {
		sp.Variant = "opt"
	}
	if _, err := sim.VariantByName(sp.Variant); err != nil {
		return err
	}
	switch sp.Priority {
	case "":
		sp.Priority = PriorityBestEffort
	case PriorityBestEffort, PriorityHigh:
	default:
		return fmt.Errorf("priority %q: want %s or %s", sp.Priority, PriorityBestEffort, PriorityHigh)
	}
	every, err := neighEvery(sp.Kind())
	if err != nil {
		return err
	}
	if sp.CheckpointEvery == 0 {
		sp.CheckpointEvery = 4 * every
	}
	if sp.CheckpointEvery%every != 0 {
		return fmt.Errorf("checkpoint_every %d: must be a multiple of the %s reneighbor interval %d for bit-identical resume", sp.CheckpointEvery, sp.Potential, every)
	}
	if sp.DeadlineSeconds < 0 {
		return fmt.Errorf("deadline_seconds %g: must be non-negative", sp.DeadlineSeconds)
	}
	if sp.MaxRetries < -1 {
		return fmt.Errorf("max_retries %d: must be >= -1", sp.MaxRetries)
	}
	return nil
}

// neighEvery reads the reneighbor cadence from the kind's base config.
func neighEvery(k core.Kind) (int, error) {
	cfg, err := core.BaseConfig(k)
	if err != nil {
		return 0, err
	}
	return cfg.NeighEvery, nil
}
