package bench

import (
	"fmt"

	"tofumd/internal/faultinject"
)

// FailstopResult is the fail-stop failover experiment: an LJ melt with TNI 2
// permanently dead from t=0, so the health layer quarantines it and the
// §3.3 balance re-plans over the five survivors. The headline series is
// steps/s before (fault-free, 6 TNIs) vs after failover (5 TNIs); the
// invariants are the usual chaos guarantees — bit-exact physics and
// bit-exact replay.
type FailstopResult struct {
	Steps int
	// CleanElapsed/FailoverElapsed are the slowest rank's virtual time for
	// the fault-free and failed-TNI runs; the StepsPerSec pair is the
	// before/after throughput they imply.
	CleanElapsed, FailoverElapsed   float64
	CleanStepsSec, FailoverStepsSec float64
	// Overhead is the relative elapsed-time cost of running on 5 TNIs.
	Overhead float64
	// Replans counts mid-run §3.3 re-balances; QuarantinedTNIs the final
	// quarantine gauge (both must be exactly 1).
	Replans, QuarantinedTNIs int64
	// FallbackMsgs counts messages the MPI path re-drove while the dead
	// TNI was still being detected.
	FallbackMsgs int64
	// PhysicsIdentical reports bit-exact final state vs the fault-free
	// run; ReplayIdentical that a second failover run reproduced the same
	// state, elapsed time and counters.
	PhysicsIdentical, ReplayIdentical bool
}

// Failstop measures the TNI-failover path of the fail-stop recovery layer.
func Failstop(opt Options) (FailstopResult, error) {
	steps := meltSteps(opt)
	clean, err := chaosMelt(steps, faultinject.Spec{})
	if err != nil {
		return FailstopResult{}, err
	}
	spec := faultinject.Spec{Seed: 5, TNIFails: []faultinject.TNIFail{{Idx: 2, At: 0}}}
	first, err := chaosMelt(steps, spec)
	if err != nil {
		return FailstopResult{}, err
	}
	replay, err := chaosMelt(steps, spec)
	if err != nil {
		return FailstopResult{}, err
	}
	return FailstopResult{
		Steps:            steps,
		CleanElapsed:     clean.elapsed,
		FailoverElapsed:  first.elapsed,
		CleanStepsSec:    float64(steps) / clean.elapsed,
		FailoverStepsSec: float64(steps) / first.elapsed,
		Overhead:         first.elapsed/clean.elapsed - 1,
		Replans:          first.replans,
		QuarantinedTNIs:  first.quarantined,
		FallbackMsgs:     first.fallbackMsgs,
		PhysicsIdentical: first.hash == clean.hash && first.energy == clean.energy,
		ReplayIdentical:  first == replay,
	}, nil
}

// Format renders the failover experiment.
func (f FailstopResult) Format() string {
	rows := [][]string{
		{"clean (6 TNIs)", fmt.Sprintf("%.6f s", f.CleanElapsed), fmt.Sprintf("%.0f", f.CleanStepsSec), "-", "-", "-", "-"},
		{"tnifail=2@0 (5 TNIs)", fmt.Sprintf("%.6f s", f.FailoverElapsed), fmt.Sprintf("%.0f", f.FailoverStepsSec),
			fmt.Sprintf("%+.2f%%", 100*f.Overhead), fmt.Sprintf("%d", f.Replans),
			yesNo(f.PhysicsIdentical), yesNo(f.ReplayIdentical)},
	}
	s := fmt.Sprintf("Fail-stop TNI failover: LJ melt, %d steps, TNI 2 dead from t=0\n", f.Steps)
	s += table([]string{"run", "elapsed", "steps/s", "overhead", "replans", "physics==", "replay=="}, rows)
	s += "failover costs virtual time only: physics and replay columns must be yes\n"
	return s
}

// Artifact emits the failover series: throughput before/after (higher is
// better), the quarantine bookkeeping, and the invariant flags.
func (f FailstopResult) Artifact(opt Options) *Artifact {
	a := NewArtifact("failstop", opt)
	a.Add(key("clean", "steps_per_s"), "steps/s", f.CleanStepsSec, DirHigher)
	a.Add(key("failover", "steps_per_s"), "steps/s", f.FailoverStepsSec, DirHigher)
	a.Add(key("clean", "elapsed"), "s", f.CleanElapsed, DirLower)
	a.Add(key("failover", "elapsed"), "s", f.FailoverElapsed, DirLower)
	a.Add(key("failover", "overhead"), "frac", f.Overhead, "")
	a.Add(key("failover", "replans"), "count", float64(f.Replans), DirEqual)
	a.Add(key("failover", "quarantined_tnis"), "count", float64(f.QuarantinedTNIs), DirEqual)
	a.Add(key("failover", "fallback_msgs"), "count", float64(f.FallbackMsgs), DirEqual)
	a.Add(key("failover", "physics_identical"), "bool", boolSeries(f.PhysicsIdentical), DirEqual)
	a.Add(key("failover", "replay_identical"), "bool", boolSeries(f.ReplayIdentical), DirEqual)
	return a
}
