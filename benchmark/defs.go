package main

// metricDef names one number the benchmark reports. The tables below are the
// single source of names, units, directions and bounds; BENCHMARK.json
// repeats them for the driver and the smoke test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it a regression. Exact
	// metrics ignore it.
	Bound float64
	// Exact marks numbers that are pure functions of the inputs (counts and
	// virtual-clock results): -compare demands equality, not a bound.
	Exact bool
}

// endToEnd lists what a user of the simulator sees. Not every workload
// reports every metric: op_ms_p90 needs at least ten samples beyond it and
// paper_err needs a paper reference; an absent metric is absent, not zero.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "fail_frac", Unit: "frac", Better: "lower", Exact: true},
	{Name: "paper_err", Unit: "frac", Better: "lower", Exact: true},
	{Name: "virt_drift", Unit: "count", Better: "lower", Exact: true},
}

// driverEndToEnd is the subset the driver's contract can carry: emitted by
// every workload and never zero. fail_frac and virt_drift reach the driver
// as the result line's failed/attempted and correct; paper_err rides with
// the traced run's per-layer set; op_ms_p90 stays in the report.
var driverEndToEnd = []string{"setup_s", "op_ms_p50", "ops_per_s", "live_heap_mb"}

// perLayer lists the numbers taken per layer (layer = package name), by
// probing exported functions from outside or by reading counters attached
// in the traced pass.
var perLayer = []metricDef{
	{Name: "potential.lj_ns_per_pair", Unit: "ns/pair", Better: "lower"},
	{Name: "potential.lj_full_ns_per_pair", Unit: "ns/pair", Better: "lower"},
	{Name: "potential.eam_ns_per_pair", Unit: "ns/pair", Better: "lower"},
	{Name: "potential.share_est", Unit: "frac", Better: "lower"},

	{Name: "neighbor.build_ns_per_atom", Unit: "ns/atom", Better: "lower"},
	{Name: "neighbor.build_full_ns_per_atom", Unit: "ns/atom", Better: "lower"},
	{Name: "neighbor.pairs_per_atom", Unit: "1/atom", Better: "lower", Exact: true},
	{Name: "neighbor.share_est", Unit: "frac", Better: "lower"},

	{Name: "integrate.ns_per_atom", Unit: "ns/atom", Better: "lower"},

	{Name: "sim.rebuilds_per_op", Unit: "1/op", Better: "lower", Exact: true},
	{Name: "sim.ghosts_per_local", Unit: "1/atom", Better: "lower", Exact: true},
	{Name: "sim.comm_share_est", Unit: "frac", Better: "lower"},

	{Name: "halo.codec_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "halo.plan_us_per_rank", Unit: "us/rank", Better: "lower"},

	{Name: "utofu.round_ns_per_put", Unit: "ns/put", Better: "lower"},
	{Name: "utofu.puts_per_op", Unit: "1/op", Better: "lower", Exact: true},
	{Name: "utofu.put_bytes_per_op", Unit: "B/op", Better: "lower", Exact: true},

	{Name: "mpi.round_ns_per_msg", Unit: "ns/msg", Better: "lower"},
	{Name: "mpi.msgs_per_op", Unit: "1/op", Better: "lower", Exact: true},
	{Name: "mpi.bytes_per_op", Unit: "B/op", Better: "lower", Exact: true},

	{Name: "tofu.round_ns_per_transfer", Unit: "ns/transfer", Better: "lower"},
	{Name: "tofu.round_par2_speedup", Unit: "x", Better: "higher"},
	{Name: "tofu.transfers_per_op", Unit: "1/op", Better: "lower", Exact: true},
	{Name: "tofu.bytes_per_op", Unit: "B/op", Better: "lower", Exact: true},

	{Name: "des.ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "des.events_per_op", Unit: "1/op", Better: "lower", Exact: true},

	{Name: "threadpool.dispatch_us_32", Unit: "us/region", Better: "lower"},
	{Name: "threadpool.dispatch_us_256", Unit: "us/region", Better: "lower"},
	{Name: "threadpool.regions_per_op", Unit: "1/op", Better: "lower", Exact: true},
	{Name: "threadpool.par_speedup", Unit: "x", Better: "higher"},

	{Name: "restart.capture_ms", Unit: "ms/call", Better: "lower"},
	{Name: "restart.write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "restart.read_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "core.start_ms", Unit: "ms/call", Better: "lower"},
	{Name: "core.start_restart_ms", Unit: "ms/call", Better: "lower"},
	{Name: "core.ns_per_atom_step", Unit: "ns/atom-step", Better: "lower"},
	{Name: "core.modeled_ref_ms", Unit: "ms/call", Better: "lower"},
	{Name: "core.modeled_opt_ms", Unit: "ms/call", Better: "lower"},

	{Name: "lbm.mcell_updates_per_s", Unit: "M/s", Better: "higher"},
	{Name: "lbm.new_ms", Unit: "ms/call", Better: "lower"},

	{Name: "jobfarm.submit_ms_p50", Unit: "ms/req", Better: "lower"},
	{Name: "jobfarm.status_ms_p50", Unit: "ms/req", Better: "lower"},
	{Name: "jobfarm.queue_wait_ms_p50", Unit: "ms/job", Better: "lower"},
	{Name: "jobfarm.sched_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "jobfarm.journal_ms_per_commit", Unit: "ms/commit", Better: "lower"},
	{Name: "jobfarm.overhead_frac", Unit: "frac", Better: "lower"},

	{Name: "metrics.overhead_frac", Unit: "frac", Better: "lower"},

	{Name: "runtime.alloc_mb_per_op", Unit: "MB/op", Better: "lower"},
	{Name: "runtime.mallocs_per_op", Unit: "1/op", Better: "lower"},
	{Name: "runtime.gc_cycles_per_op", Unit: "1/op", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_op", Unit: "ms/op", Better: "lower"},

	{Name: "virt.ms_per_op", Unit: "virt_ms/op", Better: "lower", Exact: true},
	{Name: "virt.comm_frac", Unit: "frac", Better: "lower", Exact: true},
	{Name: "virt.perf_per_day", Unit: "1/day", Better: "higher", Exact: true},
	{Name: "virt.speedup_lj", Unit: "x", Better: "higher", Exact: true},
	{Name: "virt.speedup_eam", Unit: "x", Better: "higher", Exact: true},
}

// driverPerLayerExtra is the end-to-end number only one workload has that
// the driver still receives, with the traced run's per-layer set. op_ms_p90
// is not sent: the driver wants every listed metric from every workload, and
// a tail latency of 0 ms from the five that lack one is not a measurement.
var driverPerLayerExtra = []string{"paper_err"}

func findDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	for _, d := range perLayer {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
