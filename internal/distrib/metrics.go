package distrib

import (
	"strconv"
	"sync"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/sat"
)

// coordMetrics is the coordinator's side of /metrics. Of its own it
// keeps only what nothing else counts: the time histograms, heartbeats,
// budgeted give-ups and the live worker and partition gauges. Every other
// series is a view of the count's owner (watch), which it holds instead
// of the coordinator: a registry that outlives the run keeps neither its
// template nor its encoding alive. With a nil registry every instrument
// is nil and every update a no-op, so the coordinator updates them
// unconditionally.
type coordMetrics struct {
	reg    *obs.Registry
	run    *tally
	health *HealthRegistry // the per-worker counts' owner

	heartbeats       *obs.Counter
	budgetExhausted  *obs.Counter
	certifySeconds   *obs.Histogram
	solveSeconds     *obs.Histogram
	partSolveSeconds *obs.Histogram
}

// newCoordMetrics registers the instruments, for a fresh run tally. Until
// watch names the run's health registry, the per-worker series read one
// of the metrics' own.
func newCoordMetrics(reg *obs.Registry) *coordMetrics {
	m := &coordMetrics{
		reg: reg,
		run: &tally{},
		heartbeats: reg.Counter("parbmc_coordinator_heartbeats_total",
			"Heartbeat messages received from workers."),
		budgetExhausted: reg.Counter("parbmc_coordinator_budget_exhausted_total",
			"Chunks that ended Unknown with a named budget (terminal)."),
		certifySeconds: reg.Histogram("parbmc_coordinator_certify_seconds",
			"Per-result certificate verification wall time in seconds (fixed duration buckets).", nil),
		solveSeconds: reg.Histogram("parbmc_coordinator_job_solve_seconds",
			"Per-job remote solver wall time in seconds (fixed duration buckets).", nil),
		partSolveSeconds: reg.Histogram("parbmc_partition_solve_seconds",
			"Per-partition solve wall time in seconds (fixed duration buckets), from final results.", nil),
	}
	m.watchWorkers(NewHealthRegistry())
	return m
}

// watch registers the views of the counts the run's tally, the
// scheduler's fold, the chunk tracker, the journal and the health
// registry keep.
func (m *coordMetrics) watch(sched *partition.Scheduler, tracker *chunkTracker, jnl *journal.Journal, health *HealthRegistry) {
	reg, t := m.reg, m.run
	before := jnl.Commits() // what this run did not commit
	for _, v := range []struct {
		register   func(name, help string, f func() int64)
		name, help string
		read       func() int64
	}{
		{reg.GaugeFunc, "parbmc_coordinator_chunks_remaining", "Chunks neither refuted nor quarantined yet.",
			func() int64 { return int64(sched.Live()) }},
		{reg.GaugeFunc, "parbmc_cube_tree_depth", "Deepest assumption-cube path dispatched so far (0 until the first single-partition split).",
			func() int64 { return int64(sched.Summary().MaxDepth) }},
		{reg.GaugeFunc, "parbmc_journal_sealed", "1 once the run journal sealed itself after a storage failure (run degraded to journal-less).",
			func() int64 { return int64(min(len(sched.Summary().SealCause), 1)) }},
		{reg.CounterFunc, "parbmc_coordinator_chunks_resumed_total", "Chunk verdicts replayed from the journal instead of re-solved.",
			func() int64 { return int64(sched.Summary().Resumed) }},
		{reg.CounterFunc, "parbmc_cubes_split_total", "In-flight cubes split into two sub-cubes after stalling past the grace period (adaptive partitioning).",
			func() int64 { return int64(sched.Summary().Splits) }},
		{reg.CounterFunc, "parbmc_steals_total", "Splits where the idle worker that forced the split took a child cube from the straggler.",
			func() int64 { return int64(sched.Summary().Steals) }},
		{reg.CounterFunc, "parbmc_chunks_hedged_total", "Speculative duplicate dispatches of long-running cubes to idle workers.",
			func() int64 { return int64(sched.Summary().Hedges) }},
		{reg.CounterFunc, "parbmc_results_superseded_total", "Results discarded because their cube was split or a hedge twin won while they were in flight.",
			func() int64 { return int64(sched.Summary().Superseded) }},
		{reg.CounterFunc, "parbmc_coordinator_quarantined_total", "Chunks that exhausted their attempt budget.",
			func() int64 { return int64(len(tracker.failureLog())) }},
		{reg.CounterFunc, "parbmc_journal_commits_total", "Chunk verdicts durably committed to the run journal.",
			func() int64 { return int64(jnl.Commits() - before) }},
		{reg.GaugeFunc, "parbmc_coordinator_workers_active", "Workers currently connected past hello.",
			func() int64 { return int64(t.workers(0)) }},
		{reg.CounterFunc, "parbmc_coordinator_reassigned_total", "Chunks handed to another worker after a failure.",
			func() int64 { return int64(t.snapshot().Reassigned) }},
		{reg.CounterFunc, "parbmc_chunks_memory_aborted_total", "Chunks that gave up on the run's memory budget: a solver over it after shedding learnt clauses (a worker's OOM-watchdog trip is a re-queued attempt, not counted here).",
			func() int64 { return int64(t.snapshot().MemoryAborted) }},
		{reg.CounterFunc, "parbmc_coordinator_certificates_verified_total", "Remote verdict certificates that checked out against the coordinator's own encoding.",
			func() int64 { return int64(t.snapshot().Certified) }},
		{reg.CounterFunc, "parbmc_coordinator_certificates_rejected_total", "Remote verdict certificates rejected (missing, malformed, oversized, or failed verification).",
			func() int64 { return int64(t.snapshot().CertRejected) }},
		// Over certify_seconds' sum, lemmas and chain clauses are the
		// checker's rates: a lemma costs its chain and nothing else.
		{reg.CounterFunc, "parbmc_coordinator_certify_lemmas_total", "Lemmas the coordinator's proof checkers put to the RUP test while verifying SAFE certificates.",
			func() int64 { return t.snapshot().CertifyWork.Lemmas }},
		{reg.CounterFunc, "parbmc_coordinator_certify_chain_clauses_total", "Antecedent-chain clause IDs the coordinator's proof checkers walked while verifying SAFE certificates.",
			func() int64 { return t.snapshot().CertifyWork.ChainClauses }},
		{reg.CounterFunc, "parbmc_remote_decisions_total", "Solver decisions aggregated from remote job results.",
			func() int64 { return t.snapshot().RemoteStats.Decisions }},
		{reg.CounterFunc, "parbmc_remote_conflicts_total", "Solver conflicts aggregated from remote job results.",
			func() int64 { return t.snapshot().RemoteStats.Conflicts }},
		{reg.CounterFunc, "parbmc_remote_propagations_total", "Solver propagations aggregated from remote job results.",
			func() int64 { return t.snapshot().RemoteStats.Propagations }},
		{reg.CounterFunc, "parbmc_remote_restarts_total", "Solver restarts aggregated from remote job results.",
			func() int64 { return t.snapshot().RemoteStats.Restarts }},
		{reg.CounterFunc, "parbmc_remote_learnt_total", "Learnt clauses aggregated from remote job results.",
			func() int64 { return t.snapshot().RemoteStats.Learnt }},
		{reg.CounterFunc, "parbmc_remote_learnt_deleted_total", "Learnt clauses discarded by reduceDB, aggregated from remote job results.",
			func() int64 { return t.snapshot().RemoteStats.LearntDeleted }},
	} {
		v.register(v.name, v.help, v.read)
	}
	// One series per fixed sat.LBDBounds bucket that holds a clause,
	// labelled by the bucket's inclusive upper bound.
	reg.CounterFuncBy("parbmc_lbd_bucket", "Learnt clauses per LBD bucket, aggregated from remote job results.", "le",
		func() map[string]int64 {
			buckets := map[string]int64{}
			for i, count := range t.snapshot().RemoteStats.LBDHist {
				bound := "+Inf"
				if i < len(sat.LBDBounds) {
					bound = strconv.Itoa(sat.LBDBounds[i])
				}
				if count > 0 {
					buckets[bound] = count
				}
			}
			return buckets
		})
	m.watchWorkers(health)
	// Last: a scrape that reads the run's chunks reads its other series.
	reg.GaugeFunc("parbmc_coordinator_chunks_total", "Total work chunks in this run.",
		func() int64 { return int64(sched.Summary().Total) })
}

// watchWorkers makes health the owner of the per-worker series and of
// the coordinator's job count, their sum. A rejected certificate's
// attempt counts as failed.
func (m *coordMetrics) watchWorkers(health *HealthRegistry) {
	m.health = health
	per := func(read func(w WorkerHealth) int) func() map[string]int64 {
		return func() map[string]int64 {
			out := map[string]int64{}
			for _, w := range health.Snapshot() {
				if n := read(w); n > 0 {
					out[w.Name] = int64(n)
				}
			}
			return out
		}
	}
	jobs := per(func(w WorkerHealth) int { return w.Jobs })
	m.reg.CounterFunc("parbmc_coordinator_jobs_total",
		"Job results received from workers, whether or not they counted: hedge losers, acknowledged cancels and retried attempts included (the run summary's job count is the committed ones only).",
		func() (n int64) {
			for _, c := range jobs() {
				n += c
			}
			return n
		})
	m.reg.CounterFuncBy("parbmc_worker_jobs_total", "Jobs completed per worker.", "worker", jobs)
	m.reg.CounterFuncBy("parbmc_worker_failures_total", "Failed attempts charged per worker.", "worker",
		per(func(w WorkerHealth) int { return w.Failures }))
	m.reg.CounterFuncBy("parbmc_worker_certificates_rejected_total",
		"Certificates rejected per worker (a nonzero count marks the worker untrusted).", "worker",
		per(func(w WorkerHealth) int { return w.CertRejections }))
}

// jobResult charges one job result that arrived, whether or not it won
// its claim, to its worker and its statistics and solve time to the
// run's tally and histogram: the effort spent, not the effort kept.
func (m *coordMetrics) jobResult(worker string, st *sat.Stats, solveMillis int64) {
	m.health.jobDone(worker)
	m.run.add(func(r *CoordinatorResult) {
		if st != nil {
			r.RemoteStats.Add(*st)
		}
		r.SolveMillis += solveMillis
	})
	m.solveSeconds.Observe(float64(solveMillis) / 1000)
}

// heartbeat records one live-progress heartbeat from a worker and the
// hardness the scheduler noted for its job.
func (m *coordMetrics) heartbeat(worker string, hb *Message, hardness float64) {
	m.heartbeats.Inc()
	m.reg.Gauge("parbmc_worker_live_conflicts",
		"Live conflict count of the worker's current job.", "worker", worker).Set(hb.Conflicts)
	m.reg.Gauge("parbmc_worker_live_propagations",
		"Live propagation count of the worker's current job.", "worker", worker).Set(hb.Propagations)
	m.reg.FloatGauge("parbmc_worker_live_progress",
		"Live search-progress estimate [0,1] of the worker's current job (minimum across its partitions).",
		"worker", worker).Set(hb.Progress)
	m.reg.FloatGauge("parbmc_worker_hardness",
		"Hardness of the worker's current job since dispatch (conflict rate × (1 − progress slope)), the split-victim signal.",
		"worker", worker).Set(hardness)
	m.reg.Gauge("parbmc_worker_mem_bytes",
		"Live-heap estimate of the worker process in bytes, from its latest heartbeat.",
		"worker", worker).Set(hb.MemBytes)
	if hb.MemLimit > 0 {
		m.reg.Gauge("parbmc_worker_mem_limit_bytes",
			"Effective memory limit of the worker process in bytes (GOMEMLIMIT or -mem-limit).",
			"worker", worker).Set(hb.MemLimit)
	}
}

// partRow pins one partition's search state as gauges from its
// heartbeats while it runs and again from its final row, so even a
// partition solved between heartbeats gets a gauge; the final row, the
// one with a verdict and a solve time, also sets its hardness and lands
// in the fixed-bucket solve-time histogram.
func (m *coordMetrics) partRow(row report.PartitionRow) {
	part := strconv.Itoa(row.Partition)
	m.reg.FloatGauge("parbmc_partition_progress",
		"Latest search-progress estimate [0,1] per partition.",
		"partition", part).Set(row.Progress)
	m.reg.Gauge("parbmc_partition_conflicts",
		"Latest conflict count per partition.", "partition", part).Set(row.Conflicts)
	if row.Verdict != "" {
		m.reg.FloatGauge("parbmc_partition_hardness",
			"Hardness per finished partition over its solve time (conflict rate × (1 − progress slope)).",
			"partition", part).Set(row.Hardness())
		m.partSolveSeconds.Observe(float64(row.SolveMillis) / 1000)
	}
}

// dropWorker unregisters a departed worker's live gauge series — the
// six instruments heartbeat() maintains — so an evicted or quarantined
// worker stops being scraped with its last readings forever. Its
// counters (jobs, failures, certificate rejections) stay: they are
// history, not liveness. A reconnecting worker re-creates the gauges on
// its first heartbeat.
func (m *coordMetrics) dropWorker(worker string) {
	for _, name := range []string{
		"parbmc_worker_live_conflicts",
		"parbmc_worker_live_propagations",
		"parbmc_worker_live_progress",
		"parbmc_worker_hardness",
		"parbmc_worker_mem_bytes",
		"parbmc_worker_mem_limit_bytes",
	} {
		m.reg.Unregister(name, "worker", worker)
	}
}

// tally is the run's account of what its transport did — the part of
// CoordinatorResult the scheduler's fold does not fill in — and the
// number of workers connected past hello, under a lock of its own.
type tally struct {
	mu     sync.Mutex
	res    CoordinatorResult
	active int
}

// add applies one event to the tally.
func (t *tally) add(event func(r *CoordinatorResult)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	event(&t.res)
}

// snapshot copies the tally.
func (t *tally) snapshot() CoordinatorResult {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.res
}

// workers adds delta to the workers connected past hello and returns
// their number.
func (t *tally) workers(delta int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.active += delta
	return t.active
}
