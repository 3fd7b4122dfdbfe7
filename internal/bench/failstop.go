package bench

import "tofumd/internal/faultinject"

// Failstop is the fail-stop failover experiment: an LJ melt with TNI 2
// permanently dead from t=0, so the health layer quarantines it and the
// §3.3 balance re-plans over the five survivors. The headline series is
// steps/s before (fault-free, 6 TNIs) vs after failover (5 TNIs), with the
// slowest rank's elapsed virtual time behind each and the relative overhead
// of running on 5 TNIs (information only). The bookkeeping series count the
// mid-run re-balances and the final quarantine gauge (both must be exactly
// 1) and the messages the MPI path re-drove while the dead TNI was still
// being detected. The invariants are the usual chaos guarantees: bit-exact
// physics against the fault-free run and bit-exact replay of the failover
// run.
func Failstop(opt Options) (*Artifact, error) {
	steps := meltSteps(opt)
	clean, err := chaosMelt(steps, faultinject.Spec{})
	if err != nil {
		return nil, err
	}
	spec := faultinject.Spec{Seed: 5, TNIFails: []faultinject.TNIFail{{Idx: 2, At: 0}}}
	first, err := chaosMelt(steps, spec)
	if err != nil {
		return nil, err
	}
	replay, err := chaosMelt(steps, spec)
	if err != nil {
		return nil, err
	}
	a := NewArtifact("failstop", opt)
	a.Add(key("clean", "steps_per_s"), "steps/s", float64(steps)/clean.elapsed, DirHigher)
	a.Add(key("failover", "steps_per_s"), "steps/s", float64(steps)/first.elapsed, DirHigher)
	a.Add(key("clean", "elapsed"), "s", clean.elapsed, DirLower)
	a.Add(key("failover", "elapsed"), "s", first.elapsed, DirLower)
	a.Add(key("failover", "overhead"), "frac", first.elapsed/clean.elapsed-1, "")
	a.Add(key("failover", "replans"), "count", float64(first.replans), DirEqual)
	a.Add(key("failover", "quarantined_tnis"), "count", float64(first.quarantined), DirEqual)
	a.Add(key("failover", "fallback_msgs"), "count", float64(first.fallbackMsgs), DirEqual)
	a.Add(key("failover", "physics_identical"), "bool", boolSeries(first.samePhysics(clean)), DirEqual)
	a.Add(key("failover", "replay_identical"), "bool", boolSeries(first == replay), DirEqual)
	return a, nil
}
