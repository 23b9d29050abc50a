package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names, units, directions and bounds; a test keeps them equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of single layers, from the traced run. The
// first seven are end-to-end figures that do not repeat well enough on the
// box to carry a bound, that only some workloads have, or that are exact
// counts; they keep their names.
var perLayer = []metricDef{
	{"op_tail_ms", "ms", "lower", 0},
	{"accept_p50_ms", "ms", "lower", 0},
	{"probe_p50_ms", "ms", "lower", 0},
	{"probe_tail_ms", "ms", "lower", 0},
	{"failed_frac", "ratio", "lower", 0},
	{"plan_cost_ratio", "ratio", "lower", 0},
	{"sched_p95_queue_s", "s", "lower", 0},

	{"dml.parse_us", "us", "lower", 0},
	{"hop.compile_us", "us", "lower", 0},
	{"hop.ir_nodes", "count", "lower", 0},
	{"hop.leaf_blocks", "count", "lower", 0},

	{"opt.optimize_us", "us", "lower", 0},
	{"opt.costings", "count", "lower", 0},
	{"opt.block_compilations", "count", "lower", 0},
	{"opt.us_per_costing", "us", "lower", 0},
	{"opt.mallocs_per_costing", "count", "lower", 0},
	{"opt.alloc_bytes_per_decision", "B", "lower", 0},
	{"opt.cache_key_us", "us", "lower", 0},
	{"opt.cache_lookup_ns", "ns", "lower", 0},
	{"opt.cache_hit_ratio", "ratio", "higher", 0},
	{"opt.cache_insertions", "count", "lower", 0},
	{"opt.cache_evictions", "count", "lower", 0},
	{"opt.memo_replay_us", "us", "lower", 0},
	{"opt.memo_hit_ratio", "ratio", "higher", 0},
	{"opt.reuse_hits", "count", "higher", 0},
	{"opt.decisions_changed", "count", "lower", 0},

	{"lop.select_us", "us", "lower", 0},
	{"lop.mr_jobs", "count", "lower", 0},

	{"cost.program_cost_us", "us", "lower", 0},
	{"cost.mallocs_per_call", "count", "lower", 0},

	{"rt.sim_run_us", "us", "lower", 0},
	{"rt.mr_jobs_executed", "count", "lower", 0},

	{"adapt.run_extra_us", "us", "lower", 0},
	{"adapt.reopts", "count", "lower", 0},
	{"adapt.migrations", "count", "lower", 0},

	{"workload.job_us", "us", "lower", 0},
	{"workload.overhead_us", "us", "lower", 0},
	{"workload.step_us_p50", "us", "lower", 0},
	{"workload.step_us_p99", "us", "lower", 0},
	{"workload.steps", "count", "lower", 0},
	{"workload.reopt_checks", "count", "lower", 0},
	{"workload.reopt_changes", "count", "higher", 0},
	{"workload.reopt_useful_ratio", "ratio", "higher", 0},
	{"workload.grows", "count", "higher", 0},
	{"workload.shrinks", "count", "lower", 0},
	{"workload.requeues", "count", "lower", 0},
	{"workload.wasted_work_s", "s", "lower", 0},

	{"server.sequencer_job_us", "us", "lower", 0},
	{"server.sequencer_overhead_us", "us", "lower", 0},
	{"server.wire_overhead_us", "us", "lower", 0},
	{"server.codec_us", "us", "lower", 0},
	{"server.limiter_ns", "ns", "lower", 0},
	{"server.ping_p50_us", "us", "lower", 0},
	{"server.shed", "count", "lower", 0},
	{"server.errors", "count", "lower", 0},

	{"obs.metrics_add_ns", "ns", "lower", 0},
	{"obs.snapshot_us", "us", "lower", 0},

	{"proc.mallocs_per_op", "count", "lower", 0},
	{"proc.alloc_bytes_per_op", "B", "lower", 0},
	{"proc.gc_cpu_frac", "ratio", "lower", 0},
	{"proc.gc_pause_total_ms", "ms", "lower", 0},
	{"proc.heap_sys_mb", "MB", "lower", 0},

	{"probe.lateness_p99_ms", "ms", "lower", 0},

	{"trace.coverage", "ratio", "higher", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// workloadNames lists the workloads in run order.
var workloadNames = []string{"opt_sweep", "serve_hot", "serve_cold", "batch_churn"}
