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
	if sp.Steps <= 0 {
		return fmt.Errorf("steps %d: must be positive", sp.Steps)
	}
	if sp.Nodes == "" {
		sp.Nodes = "2x2x2"
	}
	if _, err := core.ParseShape(sp.Nodes); err != nil {
		return err
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
