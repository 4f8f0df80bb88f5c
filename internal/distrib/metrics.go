package distrib

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sat"
)

// coordMetrics bundles the coordinator's instruments. Built from
// CoordinatorOptions.Metrics; with a nil registry every instrument is
// nil and every update is a no-op (obs instruments are nil-safe), so
// the coordinator code updates metrics unconditionally.
type coordMetrics struct {
	reg *obs.Registry

	chunksTotal     *obs.Gauge
	chunksRemaining *obs.Gauge
	workersActive   *obs.Gauge
	jobsTotal       *obs.Counter
	reassigned      *obs.Counter
	quarantined     *obs.Counter
	heartbeats      *obs.Counter
	chunksResumed   *obs.Counter
	budgetExhausted *obs.Counter
	memoryAborted   *obs.Counter
	dispatchPaused  *obs.Counter
	journalCommits  *obs.Counter
	journalSealed   *obs.Gauge
	certVerified    *obs.Counter
	certRejected    *obs.Counter
	certifySeconds  *obs.Histogram
	// certifyPropagations over certifySeconds' sum is the checker's
	// rate, to set beside remotePropagations over solveSeconds' sum.
	certifyPropagations *obs.Counter
	// certifyHintFallbacks over the lemmas checked is the share of the
	// workers' hints that did not spare the checker the full test.
	certifyHintFallbacks *obs.Counter

	cubesSplit        *obs.Counter
	chunksHedged      *obs.Counter
	cubeSteals        *obs.Counter
	supersededResults *obs.Counter
	cubeDepth         *obs.Gauge

	remoteDecisions     *obs.Counter
	remoteConflicts     *obs.Counter
	remotePropagations  *obs.Counter
	remoteRestarts      *obs.Counter
	remoteLearnt        *obs.Counter
	remoteLearntDeleted *obs.Counter
	solveSeconds        *obs.Histogram
	partSolveSeconds    *obs.Histogram
}

func newCoordMetrics(reg *obs.Registry) *coordMetrics {
	return &coordMetrics{
		reg: reg,
		chunksTotal: reg.Gauge("parbmc_coordinator_chunks_total",
			"Total work chunks in this run."),
		chunksRemaining: reg.Gauge("parbmc_coordinator_chunks_remaining",
			"Chunks neither refuted nor quarantined yet."),
		workersActive: reg.Gauge("parbmc_coordinator_workers_active",
			"Workers currently connected past hello."),
		jobsTotal: reg.Counter("parbmc_coordinator_jobs_total",
			"Job results received from workers, whether or not they counted: hedge losers, acknowledged cancels and retried attempts included (the run summary's job count is the committed ones only)."),
		reassigned: reg.Counter("parbmc_coordinator_reassigned_total",
			"Chunks handed to another worker after a failure."),
		quarantined: reg.Counter("parbmc_coordinator_quarantined_total",
			"Chunks that exhausted their attempt budget."),
		heartbeats: reg.Counter("parbmc_coordinator_heartbeats_total",
			"Heartbeat messages received from workers."),
		chunksResumed: reg.Counter("parbmc_coordinator_chunks_resumed_total",
			"Chunk verdicts replayed from the journal instead of re-solved."),
		budgetExhausted: reg.Counter("parbmc_coordinator_budget_exhausted_total",
			"Chunks that ended Unknown with a named budget (terminal)."),
		memoryAborted: reg.Counter("parbmc_chunks_memory_aborted_total",
			"Chunk results with cause \"memory\": solver over its memory budget, or worker OOM-watchdog abort."),
		dispatchPaused: reg.Counter("parbmc_dispatch_paused_total",
			"Backpressure episodes: job dispatch paused because fleet memory pressure crossed the threshold."),
		journalCommits: reg.Counter("parbmc_journal_commits_total",
			"Chunk verdicts durably committed to the run journal."),
		journalSealed: reg.Gauge("parbmc_journal_sealed",
			"1 once the run journal sealed itself after a storage failure (run degraded to journal-less)."),
		certVerified: reg.Counter("parbmc_coordinator_certificates_verified_total",
			"Remote verdict certificates that checked out against the coordinator's own encoding."),
		certRejected: reg.Counter("parbmc_coordinator_certificates_rejected_total",
			"Remote verdict certificates rejected (missing, malformed, oversized, or failed verification)."),
		certifySeconds: reg.Histogram("parbmc_coordinator_certify_seconds",
			"Per-result certificate verification wall time in seconds (fixed duration buckets).", nil),
		certifyPropagations: reg.Counter("parbmc_coordinator_certify_propagations_total",
			"Literals propagated by the coordinator's proof checkers while verifying SAFE certificates."),
		certifyHintFallbacks: reg.Counter("parbmc_certify_hint_fallbacks_total",
			"Hinted lemmas the coordinator's proof checker could not refute within the worker's hint and put to the full RUP test."),
		cubesSplit: reg.Counter("parbmc_cubes_split_total",
			"In-flight cubes split into two sub-cubes after stalling past the grace period (adaptive partitioning)."),
		chunksHedged: reg.Counter("parbmc_chunks_hedged_total",
			"Speculative duplicate dispatches of long-running cubes to idle workers."),
		cubeSteals: reg.Counter("parbmc_steals_total",
			"Splits where the idle worker that forced the split took a child cube from the straggler."),
		supersededResults: reg.Counter("parbmc_results_superseded_total",
			"Results discarded because their cube was split or a hedge twin won while they were in flight."),
		cubeDepth: reg.Gauge("parbmc_cube_tree_depth",
			"Deepest assumption-cube path dispatched so far (0 until the first single-partition split)."),
		remoteDecisions: reg.Counter("parbmc_remote_decisions_total",
			"Solver decisions aggregated from remote job results."),
		remoteConflicts: reg.Counter("parbmc_remote_conflicts_total",
			"Solver conflicts aggregated from remote job results."),
		remotePropagations: reg.Counter("parbmc_remote_propagations_total",
			"Solver propagations aggregated from remote job results."),
		remoteRestarts: reg.Counter("parbmc_remote_restarts_total",
			"Solver restarts aggregated from remote job results."),
		remoteLearnt: reg.Counter("parbmc_remote_learnt_total",
			"Learnt clauses aggregated from remote job results."),
		remoteLearntDeleted: reg.Counter("parbmc_remote_learnt_deleted_total",
			"Learnt clauses discarded by reduceDB, aggregated from remote job results."),
		solveSeconds: reg.Histogram("parbmc_coordinator_job_solve_seconds",
			"Per-job remote solver wall time in seconds (fixed duration buckets).", nil),
		partSolveSeconds: reg.Histogram("parbmc_partition_solve_seconds",
			"Per-partition solve wall time in seconds (fixed duration buckets), from final results.", nil),
	}
}

// jobResult charges one job result that arrived — whether or not it then
// won its claim; the ones that did are CoordinatorResult.Jobs — with its
// remote statistics, including the solver-introspection aggregates (LBD
// distribution, learnt-DB churn) the performance observatory exports.
func (m *coordMetrics) jobResult(worker string, st *sat.Stats, solveMillis int64) {
	m.jobsTotal.Inc()
	m.reg.Counter("parbmc_worker_jobs_total",
		"Jobs completed per worker.", "worker", worker).Inc()
	if st != nil {
		m.remoteDecisions.Add(st.Decisions)
		m.remoteConflicts.Add(st.Conflicts)
		m.remotePropagations.Add(st.Propagations)
		m.remoteRestarts.Add(st.Restarts)
		m.remoteLearnt.Add(st.Learnt)
		m.remoteLearntDeleted.Add(st.LearntDeleted)
		m.lbdHist(st.LBDHist)
	}
	m.solveSeconds.Observe(float64(solveMillis) / 1000)
}

// lbdHist folds a job's learnt-clause LBD distribution into the
// cumulative parbmc_lbd_bucket counters (one per fixed sat.LBDBounds
// bucket, labelled by the bucket's inclusive upper bound).
func (m *coordMetrics) lbdHist(h sat.LBDHistogram) {
	for i, count := range h {
		if count == 0 {
			continue
		}
		bound := "+Inf"
		if i < len(sat.LBDBounds) {
			bound = strconv.Itoa(sat.LBDBounds[i])
		}
		m.reg.Counter("parbmc_lbd_bucket",
			"Learnt clauses per LBD bucket, aggregated from remote job results.",
			"le", bound).Add(count)
	}
}

// heartbeat records one live-progress heartbeat from a worker,
// including the sampled job-level solver rates.
func (m *coordMetrics) heartbeat(worker string, hb *Message) {
	m.heartbeats.Inc()
	m.reg.Gauge("parbmc_worker_live_conflicts",
		"Live conflict count of the worker's current job.", "worker", worker).Set(hb.Conflicts)
	m.reg.Gauge("parbmc_worker_live_propagations",
		"Live propagation count of the worker's current job.", "worker", worker).Set(hb.Propagations)
	m.reg.FloatGauge("parbmc_worker_live_progress",
		"Live search-progress estimate [0,1] of the worker's current job (minimum across its partitions).",
		"worker", worker).Set(hb.Progress)
	m.reg.FloatGauge("parbmc_worker_conflict_rate",
		"Live conflicts/second of the worker's current job over the last heartbeat interval.",
		"worker", worker).Set(hb.ConflictRate)
	m.reg.FloatGauge("parbmc_worker_decision_rate",
		"Live decisions/second of the worker's current job over the last heartbeat interval.",
		"worker", worker).Set(hb.DecisionRate)
	m.reg.FloatGauge("parbmc_worker_propagation_rate",
		"Live propagations/second of the worker's current job over the last heartbeat interval.",
		"worker", worker).Set(hb.PropagationRate)
	m.reg.FloatGauge("parbmc_worker_hardness",
		"Hardness score of the worker's hottest partition (conflict rate × (1 − progress slope)).",
		"worker", worker).Set(hb.Hardness)
	m.reg.Gauge("parbmc_worker_mem_bytes",
		"Live-heap estimate of the worker process in bytes, from its latest heartbeat.",
		"worker", worker).Set(hb.MemBytes)
	if hb.MemLimit > 0 {
		m.reg.Gauge("parbmc_worker_mem_limit_bytes",
			"Effective memory limit of the worker process in bytes (GOMEMLIMIT or -mem-limit).",
			"worker", worker).Set(hb.MemLimit)
	}
}

// partRow pins one partition's search state as gauges — the imbalance
// signal adaptive splitting keys on — from its heartbeats while it runs
// and again from its final row, so even a partition solved between
// heartbeats gets a gauge; the final row, the one with a verdict, also
// lands in the fixed-bucket solve-time histogram.
func (m *coordMetrics) partRow(row report.PartitionRow) {
	part := strconv.Itoa(row.Partition)
	m.reg.FloatGauge("parbmc_partition_progress",
		"Latest search-progress estimate [0,1] per partition.",
		"partition", part).Set(row.Progress)
	m.reg.Gauge("parbmc_partition_conflicts",
		"Latest conflict count per partition.", "partition", part).Set(row.Conflicts)
	m.reg.FloatGauge("parbmc_partition_hardness",
		"Latest hardness score per partition (conflict rate × (1 − progress slope)); the work-stealing signal.",
		"partition", part).Set(row.Hardness)
	m.reg.FloatGauge("parbmc_partition_conflict_rate",
		"Latest conflicts/second per partition.", "partition", part).Set(row.ConflictRate)
	if row.Verdict != "" {
		m.partSolveSeconds.Observe(float64(row.SolveMillis) / 1000)
	}
}

// workerCertRejected charges one rejected certificate to a worker.
func (m *coordMetrics) workerCertRejected(worker string) {
	m.reg.Counter("parbmc_worker_certificates_rejected_total",
		"Certificates rejected per worker (a nonzero count marks the worker untrusted).", "worker", worker).Inc()
}

// workerFailed charges one failed attempt to a worker.
func (m *coordMetrics) workerFailed(worker string) {
	m.reg.Counter("parbmc_worker_failures_total",
		"Failed attempts charged per worker.", "worker", worker).Inc()
}

// dropWorker unregisters a departed worker's live gauge series — the
// nine instruments heartbeat() maintains — so an evicted or quarantined
// worker stops being scraped with its last readings forever. Its
// counters (jobs, failures, certificate rejections) stay: they are
// history, not liveness. A reconnecting worker re-creates the gauges on
// its first heartbeat.
func (m *coordMetrics) dropWorker(worker string) {
	for _, name := range []string{
		"parbmc_worker_live_conflicts",
		"parbmc_worker_live_propagations",
		"parbmc_worker_live_progress",
		"parbmc_worker_conflict_rate",
		"parbmc_worker_decision_rate",
		"parbmc_worker_propagation_rate",
		"parbmc_worker_hardness",
		"parbmc_worker_mem_bytes",
		"parbmc_worker_mem_limit_bytes",
	} {
		m.reg.Unregister(name, "worker", worker)
	}
}
