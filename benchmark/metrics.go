package main

// Metric names one number the harness prints. BENCHMARK.json lists the
// same metrics; a unit test keeps the two in step.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound (end-to-end only) is the share of the baseline median by
	// which the metric may get worse before a change is a regression.
	Bound float64
	// Det (per-layer only) marks a counter that must be exactly equal
	// on every run of the same code and for every seed.
	Det bool
}

// endToEnd is what a user of the verifier sees; every workload reports
// all of them. Times are scaled to the reference clock (calib.go), so
// that the host's drift does not read as a change of the program. Failures are not a metric here because a metric may
// never read 0: they are the attempted/failed/correct fields of the
// result line, and any failed job makes the run incorrect.
var endToEnd = []Metric{
	{Name: "verdict_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is reported by a traced run; the layer is the part of the
// name before the first dot and is a package of this repository. A
// metric whose layer a workload does not exercise reads 0 there.
var perLayer = []Metric{
	{Name: "prog.parse_s", Unit: "s", Better: "lower"},
	{Name: "weakmem.transform_s", Unit: "s", Better: "lower"},
	{Name: "unfold.s", Unit: "s", Better: "lower"},
	{Name: "flatten.s", Unit: "s", Better: "lower"},
	{Name: "flatten.steps", Unit: "count", Better: "lower", Det: true},
	{Name: "vc.encode_s", Unit: "s", Better: "lower"},
	{Name: "vc.vars", Unit: "count", Better: "lower", Det: true},
	{Name: "vc.clauses", Unit: "count", Better: "lower", Det: true},
	{Name: "vc.clauses_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cnf.short_clause_share", Unit: "ratio", Better: "higher", Det: true},
	{Name: "partition.make_s", Unit: "s", Better: "lower"},
	{Name: "partition.count", Unit: "count", Better: "lower", Det: true},
	{Name: "sat.load_s", Unit: "s", Better: "lower"},
	{Name: "sat.search_s", Unit: "s", Better: "lower"},
	{Name: "sat.search_sat_s", Unit: "s", Better: "lower"},
	{Name: "sat.search_unsat_s", Unit: "s", Better: "lower"},
	{Name: "sat.conflicts", Unit: "count", Better: "lower", Det: true},
	{Name: "sat.propagations", Unit: "count", Better: "lower", Det: true},
	{Name: "sat.decisions", Unit: "count", Better: "lower", Det: true},
	{Name: "sat.restarts", Unit: "count", Better: "lower", Det: true},
	{Name: "sat.learnt_deleted", Unit: "count", Better: "lower", Det: true},
	{Name: "sat.props_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sat.conflicts_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sat.peak_bytes", Unit: "B", Better: "lower", Det: true},
	{Name: "sat.proof_lemmas", Unit: "count", Better: "lower", Det: true},
	{Name: "sat.proof_check_s", Unit: "s", Better: "lower"},
	{Name: "sat.simplify_s", Unit: "s", Better: "lower"},
	{Name: "sat.simplify_clause_ratio", Unit: "ratio", Better: "lower", Det: true},
	{Name: "parallel.solve_s", Unit: "s", Better: "lower"},
	{Name: "parallel.busy_s", Unit: "s", Better: "lower"},
	{Name: "parallel.efficiency", Unit: "ratio", Better: "higher"},
	{Name: "parallel.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "parallel.redundancy", Unit: "ratio", Better: "lower", Det: true},
	{Name: "trace.decode_validate_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "journal.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "journal.commits", Unit: "count", Better: "lower", Det: true},
	{Name: "distrib.wall_s", Unit: "s", Better: "lower"},
	{Name: "distrib.jobs", Unit: "count", Better: "lower", Det: true},
	{Name: "distrib.solve_s", Unit: "s", Better: "lower"},
	{Name: "distrib.certify_s", Unit: "s", Better: "lower"},
	{Name: "distrib.nonsolve_cpu_per_job_ms", Unit: "ms", Better: "lower"},
	{Name: "distrib.job_encode_s", Unit: "s", Better: "lower"},
	{Name: "distrib.cert_off_wall_s", Unit: "s", Better: "lower"},
	{Name: "distrib.reassigned", Unit: "count", Better: "lower", Det: true},
	{Name: "distrib.cert_rejected", Unit: "count", Better: "lower", Det: true},
	{Name: "core.verify_s", Unit: "s", Better: "lower"},
	{Name: "core.glue_s", Unit: "s", Better: "lower"},
}
