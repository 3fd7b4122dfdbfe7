package models

import (
	"fmt"

	"tofumd/internal/fsm"
)

// The jobfarm model encodes the job-lifecycle state machine of
// jobfarm.Scheduler: admission with a bounded queue (shed when full or
// draining), a bounded worker pool, priority preemption through the
// checkpoint cycle (running → preempting → checkpointed → queued),
// transient-failure retries against a budget, client cancellation,
// deadlines, and drain. The checker proves the robustness contract —
// accepted jobs are never lost, the retry budget is respected, a
// checkpointed job can always resume, the pool bound holds, and drain
// quiesces — over every interleaving of a small configuration. The
// conformance test drives the real Scheduler and replays each operation
// here, so the implementation cannot leave this verified state space.

// Job phases. JFNone is the pre-submission hole; JFShed is an admission
// rejection (never accepted, so "losing" it is allowed); JFLost is the
// defect phase only mutations can produce.
const (
	JFNone uint8 = iota
	JFQueued
	JFRunning
	JFPreempting
	JFCheckpointed
	JFRetrying
	JFDone
	JFFailed
	JFCancelled
	JFShed
	JFLost
)

// JobCell is one job's observable lifecycle state.
type JobCell struct {
	Phase   uint8
	Retries uint8
	// HasSnap reports a committed checkpoint exists to resume from.
	HasSnap bool
}

// JobFarmState is the scheduler-level state: admission mode plus each
// job's cell. Worker occupancy and queue depth are derived from phases,
// which keeps the encoding canonical (no shadow counters to desync).
type JobFarmState struct {
	Draining bool
	Jobs     [3]JobCell
}

// JobFarmConfig binds the pool geometry and seeds mutations.
type JobFarmConfig struct {
	// Jobs is how many of the three job slots the model uses (1..3).
	Jobs int
	// PriorityMask marks priority jobs by index bit.
	PriorityMask uint8
	// Workers bounds concurrently running jobs.
	Workers int
	// QueueCap bounds fresh admissions (requeues bypass it).
	QueueCap int
	// MaxRetries is the transient-failure budget per job.
	MaxRetries int

	// MutateDropPreempted seeds a bug: the worker's preemption yield is
	// dropped on the floor instead of handed back to the scheduler — the
	// job is lost (trips no-lost-job).
	MutateDropPreempted bool
	// MutateRetryPastBudget seeds a bug: the retry decision ignores the
	// budget and always retries (trips retry-budget).
	MutateRetryPastBudget bool
	// MutateForgetSnapshot seeds a bug: the checkpoint handback records
	// the yield but not the snapshot (trips checkpointed-resumable).
	MutateForgetSnapshot bool
}

func (c JobFarmConfig) validate() {
	if c.Jobs < 1 || c.Jobs > 3 || c.Workers < 1 || c.Workers > 3 || c.QueueCap < 1 || c.QueueCap > 3 || c.MaxRetries < 0 || c.MaxRetries > 3 {
		panic(fmt.Sprintf("models: jobfarm config %+v outside the bound range", c))
	}
}

func (c JobFarmConfig) priority(i int) bool { return c.PriorityMask&(1<<i) != 0 }

// JFRunningCount derives worker occupancy (Running + Preempting).
func JFRunningCount(s JobFarmState) int {
	n := 0
	for _, j := range s.Jobs {
		if j.Phase == JFRunning || j.Phase == JFPreempting {
			n++
		}
	}
	return n
}

// jfQueued derives the queue depth.
func jfQueued(s JobFarmState) int {
	n := 0
	for _, j := range s.Jobs {
		if j.Phase == JFQueued {
			n++
		}
	}
	return n
}

// jfTerminal reports a settled phase (incl. the never-admitted Shed).
func jfTerminal(p uint8) bool {
	return p == JFDone || p == JFFailed || p == JFCancelled || p == JFShed
}

// System builds the jobfarm transition system. Rules are named "<op> <i>"
// so conformance tests can mirror scheduler calls one-to-one; outcomes
// are deterministic (one Next result) except where the impl itself
// branches on data the model abstracts away.
func (c JobFarmConfig) System() fsm.System[JobFarmState] {
	c.validate()
	one := func(s JobFarmState) []JobFarmState { return []JobFarmState{s} }
	var rules []fsm.Rule[JobFarmState]

	for i := 0; i < c.Jobs; i++ {
		i := i
		// submit: admission decides queued vs shed from queue depth and
		// drain mode — the model computes the same predicate Submit does.
		rules = append(rules, fsm.Rule[JobFarmState]{
			Name:  fmt.Sprintf("submit %d", i),
			Guard: func(s JobFarmState) bool { return s.Jobs[i].Phase == JFNone },
			Next: func(s JobFarmState) []JobFarmState {
				if s.Draining || jfQueued(s) >= c.QueueCap {
					s.Jobs[i].Phase = JFShed
				} else {
					s.Jobs[i].Phase = JFQueued
				}
				return one(s)
			},
		})
		// start: a worker claims a queued job. The impl picks priority-
		// first FIFO; the model admits any queued job (impl ⊆ model).
		rules = append(rules, fsm.Rule[JobFarmState]{
			Name: fmt.Sprintf("start %d", i),
			Guard: func(s JobFarmState) bool {
				return s.Jobs[i].Phase == JFQueued && !s.Draining && JFRunningCount(s) < c.Workers
			},
			Next: func(s JobFarmState) []JobFarmState {
				s.Jobs[i].Phase = JFRunning
				return one(s)
			},
		})
		// finish: the attempt completes all steps.
		rules = append(rules, fsm.Rule[JobFarmState]{
			Name: fmt.Sprintf("finish %d", i),
			Guard: func(s JobFarmState) bool {
				return s.Jobs[i].Phase == JFRunning || s.Jobs[i].Phase == JFPreempting
			},
			Next: func(s JobFarmState) []JobFarmState {
				s.Jobs[i].Phase = JFDone
				return one(s)
			},
		})
		// failT: a transient failure; inside the budget it retries,
		// outside it fails permanently.
		rules = append(rules, fsm.Rule[JobFarmState]{
			Name: fmt.Sprintf("failT %d", i),
			Guard: func(s JobFarmState) bool {
				return s.Jobs[i].Phase == JFRunning || s.Jobs[i].Phase == JFPreempting
			},
			Next: func(s JobFarmState) []JobFarmState {
				if c.MutateRetryPastBudget {
					// Budget check dropped; saturate one past the budget
					// so the state space stays finite while the
					// retry-budget invariant still trips.
					if int(s.Jobs[i].Retries) <= c.MaxRetries {
						s.Jobs[i].Retries++
					}
					s.Jobs[i].Phase = JFRetrying
				} else if int(s.Jobs[i].Retries) < c.MaxRetries {
					s.Jobs[i].Retries++
					s.Jobs[i].Phase = JFRetrying
				} else {
					s.Jobs[i].Phase = JFFailed
				}
				return one(s)
			},
		})
		// failP: a permanent failure (bad spec mid-run, worker panic).
		rules = append(rules, fsm.Rule[JobFarmState]{
			Name: fmt.Sprintf("failP %d", i),
			Guard: func(s JobFarmState) bool {
				return s.Jobs[i].Phase == JFRunning || s.Jobs[i].Phase == JFPreempting
			},
			Next: func(s JobFarmState) []JobFarmState {
				s.Jobs[i].Phase = JFFailed
				return one(s)
			},
		})
		// preempt: queued priority demand exceeds free workers plus
		// yields already in flight, so a best-effort runner must yield.
		rules = append(rules, fsm.Rule[JobFarmState]{
			Name: fmt.Sprintf("preempt %d", i),
			Guard: func(s JobFarmState) bool {
				if s.Jobs[i].Phase != JFRunning || c.priority(i) {
					return false
				}
				prioQueued, preempting := 0, 0
				for k := 0; k < c.Jobs; k++ {
					if s.Jobs[k].Phase == JFQueued && c.priority(k) {
						prioQueued++
					}
					if s.Jobs[k].Phase == JFPreempting {
						preempting++
					}
				}
				return prioQueued > (c.Workers-JFRunningCount(s))+preempting
			},
			Next: func(s JobFarmState) []JobFarmState {
				s.Jobs[i].Phase = JFPreempting
				return one(s)
			},
		})
		// checkpoint: the preempted worker yields at a commit boundary
		// and hands the snapshot back.
		rules = append(rules, fsm.Rule[JobFarmState]{
			Name:  fmt.Sprintf("checkpoint %d", i),
			Guard: func(s JobFarmState) bool { return s.Jobs[i].Phase == JFPreempting },
			Next: func(s JobFarmState) []JobFarmState {
				switch {
				case c.MutateDropPreempted:
					// The yield never reaches the scheduler: the job
					// vanishes from every queue.
					s.Jobs[i].Phase = JFLost
				case c.MutateForgetSnapshot:
					s.Jobs[i].Phase = JFCheckpointed
				default:
					s.Jobs[i].Phase = JFCheckpointed
					s.Jobs[i].HasSnap = true
				}
				return one(s)
			},
		})
		// requeue: a checkpointed job re-enters the queue (front of its
		// class; order is abstracted). Draining parks it for the journal.
		rules = append(rules, fsm.Rule[JobFarmState]{
			Name: fmt.Sprintf("requeue %d", i),
			Guard: func(s JobFarmState) bool {
				return s.Jobs[i].Phase == JFCheckpointed && !s.Draining
			},
			Next: func(s JobFarmState) []JobFarmState {
				s.Jobs[i].Phase = JFQueued
				return one(s)
			},
		})
		// retry: the backoff elapses and the job requeues.
		rules = append(rules, fsm.Rule[JobFarmState]{
			Name: fmt.Sprintf("retry %d", i),
			Guard: func(s JobFarmState) bool {
				return s.Jobs[i].Phase == JFRetrying && !s.Draining
			},
			Next: func(s JobFarmState) []JobFarmState {
				s.Jobs[i].Phase = JFQueued
				return one(s)
			},
		})
		// cancel: a client abandons an off-worker job.
		rules = append(rules, fsm.Rule[JobFarmState]{
			Name: fmt.Sprintf("cancel %d", i),
			Guard: func(s JobFarmState) bool {
				p := s.Jobs[i].Phase
				return p == JFQueued || p == JFRetrying || p == JFCheckpointed
			},
			Next: func(s JobFarmState) []JobFarmState {
				s.Jobs[i].Phase = JFCancelled
				return one(s)
			},
		})
		// cancelRun: a client abandons an on-worker job; the worker
		// stops at the next commit boundary.
		rules = append(rules, fsm.Rule[JobFarmState]{
			Name: fmt.Sprintf("cancelRun %d", i),
			Guard: func(s JobFarmState) bool {
				return s.Jobs[i].Phase == JFRunning || s.Jobs[i].Phase == JFPreempting
			},
			Next: func(s JobFarmState) []JobFarmState {
				s.Jobs[i].Phase = JFCancelled
				return one(s)
			},
		})
		// deadline: the wall-clock budget expires in any live phase.
		rules = append(rules, fsm.Rule[JobFarmState]{
			Name: fmt.Sprintf("deadline %d", i),
			Guard: func(s JobFarmState) bool {
				p := s.Jobs[i].Phase
				return p != JFNone && !jfTerminal(p) && p != JFLost
			},
			Next: func(s JobFarmState) []JobFarmState {
				s.Jobs[i].Phase = JFFailed
				return one(s)
			},
		})
	}
	// drain: SIGTERM closes admission farm-wide.
	rules = append(rules, fsm.Rule[JobFarmState]{
		Name:  "drain",
		Guard: func(s JobFarmState) bool { return !s.Draining },
		Next: func(s JobFarmState) []JobFarmState {
			s.Draining = true
			return one(s)
		},
	})
	return fsm.System[JobFarmState]{
		Name:  fmt.Sprintf("jobfarm(jobs=%d,workers=%d,cap=%d,retries=%d,prio=%b)", c.Jobs, c.Workers, c.QueueCap, c.MaxRetries, c.PriorityMask),
		Init:  []JobFarmState{{}},
		Rules: rules,
	}
}

// Invariants returns the robustness contract for this configuration.
func (c JobFarmConfig) Invariants() []fsm.Invariant[JobFarmState] {
	return []fsm.Invariant[JobFarmState]{
		// An accepted job is never dropped: the only way to leave the
		// tracked lifecycle is a terminal phase (shed jobs were rejected
		// at admission, which is the explicit, reported outcome).
		fsm.Never("no-lost-job", func(s JobFarmState) bool {
			for i := 0; i < c.Jobs; i++ {
				if s.Jobs[i].Phase == JFLost {
					return true
				}
			}
			return false
		}),
		// The transient-retry budget is a hard bound.
		fsm.Always("retry-budget", func(s JobFarmState) bool {
			for i := 0; i < c.Jobs; i++ {
				if int(s.Jobs[i].Retries) > c.MaxRetries {
					return false
				}
			}
			return true
		}),
		// A checkpointed job always has a snapshot to resume from.
		fsm.Always("checkpointed-resumable", func(s JobFarmState) bool {
			for i := 0; i < c.Jobs; i++ {
				if s.Jobs[i].Phase == JFCheckpointed && !s.Jobs[i].HasSnap {
					return false
				}
			}
			return true
		}),
		// The worker pool bound holds in every reachable state.
		fsm.Always("running-within-workers", func(s JobFarmState) bool {
			return JFRunningCount(s) <= c.Workers
		}),
		// Drain terminates: from any state, a quiescent draining state
		// (no job on a worker) is reachable within drain + one yield per
		// job slot.
		fsm.EventuallyWithin("drain-quiesces", 1+c.Jobs, func(s JobFarmState) bool {
			return s.Draining && JFRunningCount(s) == 0
		}),
	}
}

// AllowDeadlock admits the fully-settled drained states: every used slot
// terminal and admission closed (anything else still has a move).
func (c JobFarmConfig) AllowDeadlock(s JobFarmState) bool {
	if !s.Draining {
		return false
	}
	for i := 0; i < c.Jobs; i++ {
		if !jfTerminal(s.Jobs[i].Phase) {
			return false
		}
	}
	return true
}
