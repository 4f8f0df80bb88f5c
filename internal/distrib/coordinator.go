package distrib

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/sat"
	"repro/prog"
)

// CoordinatorOptions configures a distributed analysis.
type CoordinatorOptions struct {
	// Unwind, Contexts, Width are the analysis bounds.
	Unwind, Contexts, Width int
	// Partitions is the total partition count asked for (power of two);
	// the run has as many as the encoding allows, as in core.
	Partitions int
	// ChunkSize is the number of partitions per work unit (default: the
	// run's partition count / 8, at least 1).
	ChunkSize int
	// JobTimeout bounds one worker job; an expired job is a failed
	// attempt (default 10 minutes).
	JobTimeout time.Duration
	// MaxAttempts is the per-chunk failure budget: a chunk whose
	// assignments fail this many times is quarantined — recorded in the
	// failure log and no longer reassigned, capping the verdict at
	// Unknown (default 3).
	MaxAttempts int
	// HeartbeatInterval is the cadence workers are told to report at
	// while running a job, so a stalled worker is detected well before
	// JobTimeout (default 5s; a negative interval is refused).
	HeartbeatInterval time.Duration
	// HeartbeatGrace is how long the coordinator waits without hearing a
	// heartbeat or result before declaring the worker stalled: the
	// deadline of every read while a job runs (default 4 ×
	// HeartbeatInterval, and never more than JobTimeout).
	HeartbeatGrace time.Duration
	// DrainTimeout is how long the coordinator waits for a worker to
	// (re)connect once chunks are pending but no workers remain, before
	// giving up with Unknown; reconnecting workers must come back within
	// this window (default 30s).
	DrainTimeout time.Duration
	// Budget bounds each cube's wall clock, solver conflicts and solver
	// memory on the worker; a cube that exhausts part of it comes back as
	// a terminal budgeted Unknown — journaled with the budget it gave up
	// under — instead of burning JobTimeout and an attempt. Only a budget
	// set here ends a cube (journal.Budget.Sets): a give-up naming one the
	// run never set, like a job a worker's OOM watchdog cancelled, is a
	// failed attempt, re-queued and charged.
	Budget journal.Budget
	// Split enables adaptive cube splitting (Split.Depth > 0): an idle
	// worker that finds the queue empty may split the hardest in-flight
	// cube dispatched at least Split.Grace ago — halving a
	// multi-partition range, or extending a single partition's assumption
	// cube by one scheduler bit — re-dispatching the two sub-cubes
	// (taking one itself: work stealing by construction). Split.Grace
	// also ages hedge candidates.
	Split partition.SplitPolicy
	// Hedge enables speculative re-dispatch: an idle worker with nothing
	// to run and nothing to split duplicates the longest-running cube;
	// the first result to arrive wins and the loser is cancelled without
	// being journaled or charged to the attempt budget.
	Hedge bool
	// JournalPath, when non-empty, records the run manifest and every
	// chunk verdict in a crash-safe journal, committed before the chunk
	// is acknowledged, so a killed coordinator can be restarted without
	// re-solving finished chunks. A pre-existing journal is refused
	// unless Resume is set.
	JournalPath string
	// Resume permits JournalPath to name an existing journal; its
	// manifest (program hash, bounds, partitioning) must match this run
	// or Coordinate fails with journal.ErrManifestMismatch.
	Resume bool
	// Metrics, when non-nil, receives live chunk/worker gauges and
	// aggregated remote solver counters, for scraping via /metrics
	// during the run. Nil disables instrumentation at no cost.
	Metrics *obs.Registry
	// Health, when non-nil, is the worker-health registry to record
	// into; cmd/coordinator shares one instance with its /healthz
	// endpoint. Nil: Coordinate creates a private one.
	Health *HealthRegistry
	// Certify selects how much evidence remote definite verdicts must
	// carry, verified against the coordinator's own encoding before a
	// verdict is believed or journaled. The zero value is full
	// certification; see CertifyPolicy.
	Certify CertifyPolicy
	// Tracer, when non-nil, opens a root "coordinate" span with one
	// "job" child per assignment, and stamps the trace ID + job span ref
	// onto every job message so worker spans parent under them — the
	// cross-process flight recorder. Nil disables tracing at no cost.
	Tracer *obs.Tracer
	// Report, when non-nil, accumulates the run report: per-partition
	// progress rows (fed from heartbeats and results), worker span
	// events shipped back on results, and whatever snapshots the caller
	// takes. Nil disables reporting at no cost.
	Report *report.Recorder
	// ProgramName labels the report manifest (the input path or
	// benchmark name); the manifest always carries the program hash.
	ProgramName string
	// Faults, when non-nil, injects deterministic coordinator-side
	// failures for failover tests — see CoordinatorFaultPlan.
	Faults *CoordinatorFaultPlan
}

// ErrPrimaryKilled is returned by Coordinate when
// CoordinatorFaultPlan.KillAfterJobs halts the run: the simulated
// SIGKILL leaves the journal unclosed, workers unnotified, and the
// lease unreleased, exactly like the real signal.
var ErrPrimaryKilled = errors.New("distrib: primary killed by fault plan")

// CoordinatorResult aggregates a distributed run.
type CoordinatorResult struct {
	// Verdict is the overall outcome.
	Verdict core.Verdict
	// Winner is the partition index containing the bug (-1).
	Winner int
	// Jobs counts the results that won the claim for their cube and were
	// committed — not a hedge loser's or a cancelled job's, which the
	// parbmc_coordinator_jobs_total metric, every result that arrived, does.
	Jobs int
	// Reassigned counts chunks handed to another worker after a failure.
	Reassigned int
	// Wall is the overall time.
	Wall time.Duration
	// Quarantined is the structured failure log: chunks that exhausted
	// their attempt budget, with the reason for every failed attempt.
	Quarantined []ChunkFailure
	// Attempts maps each cube to the number of times it was assigned.
	Attempts map[partition.Cube]int
	// Workers summarises every worker that completed hello, sorted by
	// name (jobs completed, failures, connections, last seen).
	Workers []WorkerHealth
	// Drained reports that the run ended because chunks were pending but
	// no workers remained connected for DrainTimeout.
	Drained bool
	// Resumed counts chunks whose verdict was replayed from the journal
	// instead of reassigned to a worker.
	Resumed int
	// Exhausted lists chunks that ended Unknown with a named budget
	// (timeout or conflict budget). They are terminal — re-running under
	// the same budgets gives up again — so they cap the verdict at
	// Unknown without burning the retry budget.
	Exhausted []partition.Leaf
	// ChunksTotal / ChunksDecided are the coverage counts: the leaves of
	// the cube tree (the journal's at the start plus this run's splits)
	// and those with a definite answer (SAT or UNSAT), replays included.
	ChunksTotal, ChunksDecided int
	// RemoteStats aggregates the search statistics of every remote job
	// result (including retried attempts), so distributed runs report
	// the same solver telemetry as local ones. A partition's statistics
	// are its own — they start where its solver was cloned from the run's
	// template — so the sum is the in-process runner's for the same
	// partitions, whichever worker ran which; what the template itself
	// did is in Template.
	RemoteStats sat.Stats
	// Template accounts for the run's solver template, which the
	// coordinator builds once, before the first job goes out: the formula
	// loaded and, for a run of two or more cubes, simplified — the run's
	// one simplification pass, counted here and in no partition's search.
	// TemplateBytes is the size of its snapshot, which every connection
	// is sent ahead of its first job.
	Template      report.TemplateRow
	TemplateBytes int64
	// Restores accounts for every template a worker restored from that
	// snapshot, in the order their jobs' results arrived: one per worker,
	// unless a memory abort or a run's only cube, which uses its solver
	// up, had it restore again.
	Restores []WorkerRestore
	// SolveMillis sums the remote per-job solver wall time — the total
	// search effort spent across the cluster, as opposed to Wall. A
	// worker's restore is in its job's time, not here.
	SolveMillis int64
	// CertifyMillis sums the coordinator-side certificate verification
	// time, the overhead certification adds on top of SolveMillis: each
	// certificate's check and, once per run, the template's build, during
	// which the proof checker they are all put to is derived beside the
	// pass.
	CertifyMillis int64
	// CertifyWork sums what the proof checker did in that time: lemmas
	// put to the RUP test and the antecedent-chain IDs walked for them,
	// over the prefix (with the first tail) and accepted and rejected
	// proofs alike — the counterpart of RemoteStats. A lemma costs no more
	// than the chain it came with, whoever wrote it.
	CertifyWork sat.ProofCheckerStats
	// Certified counts definite verdicts accepted with a verified
	// certificate; CertRejected counts results whose certificate was
	// rejected (each rejection also marks its worker untrusted).
	Certified, CertRejected int
	// CertBytes sums the wire size of the accepted certificates.
	CertBytes int64
	// MemoryAborted counts chunk results that gave up on the memory
	// budget (Budget.MemMB); a worker's OOM-watchdog trip is not one.
	MemoryAborted int
	// Splits counts this run's cube splits (each one SPLIT journal record
	// and two new sub-cubes; those a resume replays are not re-counted);
	// Steals counts splits where the idle worker that
	// forced the split took a child away from the straggler's cube;
	// Hedges counts speculative duplicate dispatches; Superseded counts
	// results and assignments discarded because their cube was split or
	// a twin won the race — never journaled, never charged. MaxCubeDepth
	// is the deepest assumption-cube path the run replayed or dispatched.
	Splits, Hedges, Steals, Superseded, MaxCubeDepth int
	// JournalSealed reports that the run journal hit a write or sync
	// failure (disk full, I/O error) and sealed itself read-only; the
	// run finished journal-less from that point — still correct, but a
	// crash resume covers only verdicts committed before the seal.
	// JournalSealCause is the underlying failure.
	JournalSealed    bool
	JournalSealCause string
}

// WorkerRestore is one worker's account of restoring the run's template.
type WorkerRestore struct {
	Worker string
	TemplateRestore
}

// coordinator is the shared state of one Coordinate call.
type coordinator struct {
	opts CoordinatorOptions
	// frame is what every job of the run carries (jobFrame); a job adds
	// its ID, cube, certify level and trace context.
	frame Message
	// template is the snapshot of the run's solver template, sent to every
	// connection ahead of its first job.
	template []byte
	ln       net.Listener // closed when the run finishes
	// epoch is the lease's fencing token, stamped on the welcome and
	// every job: a worker that has served a higher one refuses this
	// coordinator, a deposed primary (see Lease). 0 for a standalone run.
	epoch int64

	mu       sync.Mutex
	finished bool
	killed   bool // fault plan halted the primary mid-run
	drain    *time.Timer
	conns    map[*conn]struct{}

	tally *tally // the run's counts; the metrics' views read it

	// sched owns the cube queue, the live-leaf count, the
	// split/hedge/fence policy and the run's ledger (journal, intake,
	// verdict fold); this file is its TCP executor.
	sched    *partition.Scheduler
	done     chan struct{}
	tracker  *chunkTracker
	metrics  *coordMetrics
	repl     *replicator   // live journal replication fan-out; nil without a journal
	verifier *certVerifier // the run's: every job's assumptions, every replay and check
	root     *obs.Span     // the run's "coordinate" span (nil when untraced)
}

// setDefaults refuses what no run can mean and fills in every knob the
// caller left at its zero value.
func (o *CoordinatorOptions) setDefaults() error {
	switch {
	case o.Partitions < 1:
		return fmt.Errorf("distrib: partition count must be >= 1")
	case o.HeartbeatInterval < 0:
		return fmt.Errorf("distrib: heartbeat interval %v is negative", o.HeartbeatInterval)
	}
	if o.JobTimeout == 0 {
		o.JobTimeout = 10 * time.Minute
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 3
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 5 * time.Second
	}
	if o.HeartbeatGrace == 0 {
		o.HeartbeatGrace = 4 * o.HeartbeatInterval
	}
	o.HeartbeatGrace = min(o.HeartbeatGrace, o.JobTimeout)
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 30 * time.Second
	}
	if o.Health == nil {
		o.Health = NewHealthRegistry()
	}
	o.Certify = o.Certify.normalize()
	return nil
}

// jobFrame is what every job of a run carries: the run's manifest, the
// budget, the heartbeat cadence and the lease epoch.
func jobFrame(opts *CoordinatorOptions, man journal.Manifest, epoch int64) Message {
	m := Message{
		Type: "job", Epoch: epoch, RunManifest: &man,
		HeartbeatMillis: opts.HeartbeatInterval.Milliseconds(),
	}
	m.setBudget(opts.Budget)
	return m
}

// Coordinate serves the analysis of program p over the workers that
// connect to ln. It returns when every chunk is refuted (Safe), a worker
// reports a counterexample (Unsafe: all other workers receive stop),
// every unresolved chunk is quarantined or no workers remain (Unknown,
// with the failure log populated), or the context is cancelled.
func Coordinate(ctx context.Context, ln net.Listener, p *prog.Program, opts CoordinatorOptions) (*CoordinatorResult, error) {
	return coordinate(ctx, ln, p, opts, 0)
}

// coordinate is Coordinate under the lease epoch RunHA's primary holds
// (0 for a standalone run).
func coordinate(ctx context.Context, ln net.Listener, p *prog.Program, opts CoordinatorOptions, epoch int64) (*CoordinatorResult, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	// The run the coordinator prepares itself is the one it partitions,
	// journals, reports and hands out, cube by cube: its manifest's.
	verifier, err := prepareRun(p, &opts)
	if err != nil {
		return nil, err
	}
	prep := verifier.prep
	man := prep.Manifest()
	man.ChunkSize = opts.ChunkSize
	if man.ChunkSize == 0 {
		man.ChunkSize = max(1, man.Partitions/8)
	}
	chunks := partition.Chunks(man.Partitions, man.ChunkSize)
	splitBits := len(prep.SplitLits())
	opts.Report.SetManifest(report.Manifest{
		Program: opts.ProgramName, Manifest: man, Mode: "distributed", TraceID: opts.Tracer.TraceID(),
	})
	jnl, err := journal.OpenRun(opts.JournalPath, opts.Resume, man)
	if err != nil {
		return nil, err
	}
	defer jnl.Close()
	root := opts.Tracer.Start("coordinate",
		obs.KV("partitions", man.Partitions), obs.KV("chunks", len(chunks)),
		obs.KV("epoch", epoch))
	start := time.Now()
	metrics := newCoordMetrics(opts.Metrics)
	co := &coordinator{
		opts:     opts,
		frame:    jobFrame(&opts, man, epoch),
		ln:       ln,
		epoch:    epoch,
		conns:    make(map[*conn]struct{}),
		tally:    metrics.run,
		done:     make(chan struct{}),
		tracker:  newChunkTracker(opts.MaxAttempts),
		metrics:  metrics,
		repl:     newReplicator(jnl),
		verifier: verifier,
		root:     root,
	}
	co.sched = partition.NewScheduler(partition.SchedOptions{
		SplitPolicy: opts.Split, SplitBits: splitBits, Hedge: opts.Hedge,
		Journal: jnl, Budget: opts.Budget,
		Paths:         true, // a job carries the split literals its path fixes
		CertifiedOnly: opts.Certify.Enabled(),
	})
	metrics.watch(co.sched, co.tracker, jnl, opts.Health)
	// Journal commit spans hang off the coordinate root so the merged
	// trace tree stays single-rooted.
	jnl.SetParent(root)
	jnl.Observe(co.committed)

	// Intake: what the journal already decided is folded, the rest queued.
	co.sched.Resume(chunks)
	if sum := co.sched.Summary(); sum.Sat || sum.Live == 0 {
		co.finish() // the journal already decides the run: nothing to hand out
	} else if err := co.buildTemplate(ctx, prep); err != nil {
		co.finish()
		ln.Close()
		return nil, err
	}
	// Cancelling ends the run, and ending it cuts Accept short, which
	// ends the accept loop.
	defer context.AfterFunc(ctx, co.finish)()
	var wg sync.WaitGroup
	for c, err := ln.Accept(); err == nil; c, err = ln.Accept() {
		wg.Add(1)
		go func() { defer wg.Done(); co.serve(c) }()
	}
	wg.Wait()
	res, err := co.result(start)
	if sum := co.sched.Summary(); err != nil || ctx.Err() != nil || !sum.Sat && sum.Live > 0 {
		ln.Close() // not the run's end, which no worker may be told
		return res, err
	}
	// For the drain window, a worker that was between connections when
	// the run ended is told so, rather than dial a closed port until its
	// reconnect budget runs out.
	answerHellos(ln, nil, func() *Message { return &Message{Type: "stop"} })
	time.AfterFunc(co.opts.DrainTimeout, func() { ln.Close() })
	return res, err
}

// deadliner is a listener whose Accept can be cut short without closing
// it (a TCP listener).
type deadliner interface{ SetDeadline(time.Time) error }

// buildTemplate makes the run's one simplification pass: it builds the
// template every cube's solver is cloned from, once, here, keeps its
// snapshot for the connections (runJob sends it ahead of each one's
// first job) and drops the solver. Under certification the build derives
// the run's proof checker beside the pass, and its time is the set-up
// part of CertifyMillis. A cancel that cuts it short ends the run, with
// no error of its own.
func (co *coordinator) buildTemplate(ctx context.Context, prep *core.Prepared) error {
	span := co.root.Child("template")
	start, tpl := time.Now(), prep.Template()
	snap, err := tpl.Snapshot(ctx)
	tpl.Drop()
	setup := time.Since(start)
	if err != nil {
		span.End(obs.KV("error", err.Error()))
		if ctx.Err() != nil {
			co.finish()
			return nil
		}
		return fmt.Errorf("distrib: the run's template: %w", err)
	}
	row := report.TemplateRowOf(tpl.Result())
	span.End(obs.KV("clauses_in", row.ClausesIn), obs.KV("clauses_out", row.ClausesOut),
		obs.KV("elim_vars", row.ElimVars), obs.KV("bytes", len(snap)))
	co.template = snap
	certify := co.opts.Certify.Enabled()
	co.tally.add(func(r *CoordinatorResult) {
		r.Template, r.TemplateBytes = row, int64(len(snap))
		if certify {
			r.CertifyMillis += setup.Milliseconds()
		}
	})
	co.opts.Report.SetTemplate(row)
	if certify {
		co.metrics.certifySeconds.Observe(setup.Seconds())
	}
	return nil
}

// result assembles the run's outcome once every connection is served:
// verdict and coverage are the scheduler's fold, the rest the transport's.
func (co *coordinator) result(start time.Time) (*CoordinatorResult, error) {
	sum := co.sched.Summary()
	if sum.SealCause != "" {
		// The run went on without its disk: the report says so (the
		// parbmc_journal_sealed gauge did as it happened).
		co.opts.Report.Warn(partition.SealWarning(sum.SealCause))
	}
	co.mu.Lock()
	if co.drain != nil {
		co.drain.Stop()
	}
	killed := co.killed
	co.mu.Unlock()
	res := co.tally.snapshot()
	res.Verdict, res.Winner = core.VerdictOf(sum.Status()), sum.Winner
	res.ChunksTotal, res.ChunksDecided, res.Resumed = sum.Total, sum.Decided, sum.Resumed
	res.Exhausted = sum.Exhausted
	res.Splits, res.Hedges, res.Steals = sum.Splits, sum.Hedges, sum.Steals
	res.Superseded, res.MaxCubeDepth = sum.Superseded, sum.MaxDepth
	res.JournalSealed, res.JournalSealCause = sum.SealCause != "", sum.SealCause
	res.Quarantined = co.tracker.failureLog()
	res.Attempts = co.tracker.attempts()
	res.Workers = co.opts.Health.Snapshot()
	res.Wall = time.Since(start)
	co.root.End(obs.KV("verdict", res.Verdict.String()))
	co.opts.Report.SetVerdict(res.Verdict.String(), res.Wall)
	if res.MemoryAborted > 0 {
		co.opts.Report.Warn(fmt.Sprintf("%d chunk result(s) gave up on the memory budget", res.MemoryAborted))
	}
	if sum.Err != nil {
		// A verdict the journal could not make durable must not be
		// acknowledged: a resume would re-derive a different history.
		return nil, sum.Err
	}
	if killed {
		return nil, ErrPrimaryKilled
	}
	return &res, nil
}

// committed is the journal's observer: what rides on a commit, run under
// the lock that orders commits. So every standby's copy carries the
// records in the primary's exact journal order, strictly after the local
// fsync: a verdict a standby inherits is one the primary made durable.
func (co *coordinator) committed(rec journal.ChunkRecord, commits int) {
	replSpan := co.root.Child("replicate_fanout",
		obs.KV("from", rec.From), obs.KV("to", rec.To))
	co.repl.append(rec, commits)
	replSpan.End()
	if co.opts.Faults.killAt(commits) {
		co.kill()
	}
}

// kill is the simulated SIGKILL of CoordinatorFaultPlan.KillAfterJobs:
// tear everything down with no farewell. The listener closes at once;
// closing every live connection makes each serve goroutine
// fail mid-protocol exactly as a dead process would.
func (co *coordinator) kill() {
	co.mu.Lock()
	co.killed = true
	co.finishLocked()
	co.ln.Close()
	conns := make([]*conn, 0, len(co.conns))
	for c := range co.conns {
		conns = append(conns, c)
	}
	co.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
}

// addConn / removeConn track live connections for kill().
func (co *coordinator) addConn(c *conn) {
	co.mu.Lock()
	co.conns[c] = struct{}{}
	co.mu.Unlock()
}

func (co *coordinator) removeConn(c *conn) {
	co.mu.Lock()
	delete(co.conns, c)
	co.mu.Unlock()
}

func (co *coordinator) finish() {
	co.mu.Lock()
	co.finishLocked()
	co.mu.Unlock()
}

// finishLocked ends the run, stops accepting (the listener stays open
// for coordinate where it can) and releases every serve loop waiting for
// work; callers hold co.mu.
func (co *coordinator) finishLocked() {
	if !co.finished {
		co.finished = true
		close(co.done)
		if dl, ok := co.ln.(deadliner); !ok || dl.SetDeadline(time.Now()) != nil {
			co.ln.Close()
		}
		co.sched.Close()
	}
}

// workerJoined/workerLeft keep the connected-worker count and arm the
// drain timer when the last worker leaves with chunks still pending —
// the state in which the old coordinator would block on Accept forever.
func (co *coordinator) workerJoined() {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.tally.workers(1)
	if co.drain != nil {
		co.drain.Stop()
		co.drain = nil
	}
}

func (co *coordinator) workerLeft() {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.tally.workers(-1) == 0 && co.sched.Live() > 0 && !co.finished {
		if co.drain != nil {
			co.drain.Stop()
		}
		co.drain = time.AfterFunc(co.opts.DrainTimeout, co.drainExpired)
	}
}

func (co *coordinator) drainExpired() {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.tally.workers(0) == 0 && co.sched.Live() > 0 && !co.finished {
		co.tally.add(func(r *CoordinatorResult) { r.Drained = true })
		co.finishLocked()
	}
}

// serve runs one worker connection to completion.
func (co *coordinator) serve(c net.Conn) {
	wc := newConn(c, 30*time.Second)
	defer wc.close()
	co.addConn(wc)
	defer co.removeConn(wc)
	hello, err := wc.recv(30 * time.Second)
	if err != nil || hello.Type != "hello" {
		return // never joined: does not count as a worker failure
	}
	if hello.Role == RoleStandby {
		// A standby coordinator wants the journal replication stream,
		// not jobs. It is not a worker: it never joins the health
		// registry's worker set or the drain accounting.
		co.serveReplica(wc, hello.WorkerName)
		return
	}
	key := co.opts.Health.connected(hello.WorkerName, c.RemoteAddr().String())
	if co.opts.Health.isUntrusted(key) {
		// A worker caught lying once is refused for the rest of the run:
		// its verdicts cannot be believed, certified or not.
		_ = wc.send(&Message{Type: "stop"})
		return
	}
	// The welcome pins this coordinator's role and lease epoch before
	// any job: a worker that has already served a higher epoch refuses
	// the whole session here, which is the split-brain fence.
	if err := wc.send(&Message{Type: "welcome", Role: RolePrimary, Epoch: co.epoch}); err != nil {
		return
	}
	co.workerJoined()
	defer co.workerLeft()
	// The per-worker live gauges stop rendering once the worker is gone
	// (its jobs/failures counters remain as history); without this, every
	// evicted or quarantined worker would be scraped with its last
	// readings forever.
	defer co.metrics.dropWorker(key)

	cancel := func(a *partition.Assignment) {
		_ = wc.send(&Message{Type: "cancel", JobID: a.JobID})
	}
	for first := true; ; first = false {
		// A queued cube, the stolen child of a straggler this worker just
		// split, or a hedged duplicate; nil when the run is over.
		a := co.sched.Acquire(key, cancel)
		if a == nil {
			// No live leaf is left: the connection that commits or gives up
			// the last one finishes the run, unless the journal failed.
			if co.sched.Summary().Err != nil {
				co.finish()
			}
			_ = wc.send(&Message{Type: "stop"})
			return
		}
		if a.SplitOf != nil {
			co.noteSplit(a)
		}
		co.tracker.assigned(a.Cube)
		reply, certified, err := co.runJob(wc, a, key, first)
		if err != nil {
			if errors.Is(err, errCertificate) {
				// A rejected certificate condemns the worker, not the cube:
				// the cube is re-queued elsewhere at no attempt cost.
				co.rejectCertificate(a, key, err.Error())
				_ = wc.send(&Message{Type: "stop"})
			} else {
				// A failed attempt: the worker's, and the cube's unless it
				// was superseded in flight.
				co.opts.Health.failed(key)
				co.retry(a, err.Error(), true)
			}
			return
		}
		co.recordResult(reply, key)

		if status := sat.ParseStatus(reply.Verdict); status != sat.Unknown || co.opts.Budget.Sets(reply.Cause) {
			// An Unknown under a budget the run set is as terminal as a
			// verdict: the same cube under the same budgets gives up again,
			// so it is journaled and not charged to the retry budget.
			if status == sat.Unknown && sat.ParseStopCause(reply.Cause) == sat.CauseMemory {
				co.tally.add(func(r *CoordinatorResult) { r.MemoryAborted++ })
			}
			if !co.settle(wc, a, reply, key, certified) {
				return
			}
			continue
		}
		// Any other Unknown is a failed attempt on a connection that stays
		// usable: a superseded assignment's (retry then only counts it as
		// discarded), a worker-local interrupt's — its OOM watchdog's among
		// them: another worker, or this one once its heap drains, may have
		// the headroom — or a give-up under a budget the run never set.
		co.retry(a, fmt.Sprintf("job %d on %s: verdict %s, cause %q", a.JobID, key, reply.Verdict, reply.Cause), true)
	}
}

// runJob sends one job — the cube's assumption literals, and for the
// first of a connection the run's template behind it — and reads its
// outcome off the wire: the result, the certificate frames that follow
// it, and — trust-but-verify — the check of a definite verdict's
// evidence (certify). Uncertified, a SAT answer's model is still
// replayed, and one that does not replay is a failed attempt. An error
// wrapping errCertificate is the worker's fault and condemns it; any
// other error is a failed attempt.
func (co *coordinator) runJob(wc *conn, a *partition.Assignment, key string, first bool) (reply *Message, certified bool, err error) {
	// The job span is the cross-process graft point: its context rides on
	// the wire, the worker parents its own job span under it, and the
	// merged trace shows one tree per run.
	jobSpan := co.root.Child("job",
		obs.KV("job", a.JobID), obs.KV("cube", a.Cube.Key()),
		obs.KV("worker", key), obs.KV("hedge", a.Hedge))
	defer func() {
		if err != nil {
			jobSpan.End(obs.KV("error", err.Error()))
		} else {
			jobSpan.End(obs.KV("verdict", reply.Verdict), obs.KV("certified", certified))
		}
	}()
	job, sc := co.frame, jobSpan.Context()
	job.JobID, job.From, job.To = a.JobID, a.Cube.From, a.Cube.To
	if job.Assume, err = co.verifier.assumptions(a.Cube); err != nil {
		return nil, false, fmt.Errorf("job %d: %v", a.JobID, err)
	}
	job.Certify, job.TraceID, job.ParentSpan = co.opts.Certify.jobLevel(a.JobID), sc.TraceID, sc.SpanID
	var template []byte
	if first {
		job.TemplateSize, template = int64(len(co.template)), co.template
	}
	if err := wc.sendChunked(&job, "template", template); err != nil {
		return nil, false, fmt.Errorf("send job %d to %s: %v", a.JobID, key, err)
	}
	if reply, err = co.awaitResult(wc, a, key); err != nil {
		return nil, false, err
	}
	// The certificate frames follow the result, a SAT one's in every
	// mode.
	cert, err := co.readCertificate(wc, a.JobID, key, reply)
	if err != nil {
		return nil, false, err
	}
	switch status := sat.ParseStatus(reply.Verdict); {
	case co.opts.Certify.Enabled() && status != sat.Unknown:
		certified, err = co.certify(a, key, job.Certify, reply, cert, jobSpan)
	case status == sat.Sat:
		if _, err := co.verifier.replay(cert); err != nil {
			return nil, false, fmt.Errorf("job %d on %s: %v", a.JobID, key, err)
		}
	}
	return reply, certified, err
}

// settle files a terminal result — SAT, UNSAT or a budgeted UNKNOWN —
// with the scheduler: a result for a cube that was split, or whose hedge
// twin already won, loses the claim and is discarded here, never
// journaled, never charged; a winner is committed before the run
// acknowledges it. settle reports whether the serve loop goes on: false
// once the run is finished (the worker is told to stop).
func (co *coordinator) settle(wc *conn, a *partition.Assignment, reply *Message, key string, certified bool) bool {
	if !co.sched.Claim(a) {
		return true
	}
	co.acceptParts(a, reply, key, certified)
	status := sat.ParseStatus(reply.Verdict)
	if status == sat.Unknown {
		co.metrics.budgetExhausted.Inc()
	}
	err := co.sched.Commit(a, partition.Outcome{
		Status: status, Winner: reply.Winner, Cause: reply.Cause,
		Millis: reply.Millis, Certified: certified,
	})
	sum := co.sched.Summary()
	if err != nil {
		co.finish()
		return false
	}
	co.tally.add(func(r *CoordinatorResult) { r.Jobs++ })
	co.mu.Lock()
	if sum.Sat {
		co.finishLocked()
	}
	fin := co.leafGoneLocked(sum)
	co.mu.Unlock()
	if fin {
		_ = wc.send(&Message{Type: "stop"})
	}
	return !fin
}

// leafGoneLocked ends the run once every leaf is committed or abandoned
// — one claimed but not committed yet keeps it going, so that standbys
// are sent that commit before the stop — and reports whether the run is
// finished. Callers hold co.mu and took sum after their own commit or
// abandon, so the last of them sees all.
func (co *coordinator) leafGoneLocked(sum partition.Summary) bool {
	if sum.Decided+len(sum.Exhausted)+sum.Abandoned == sum.Total {
		co.finishLocked()
	}
	return co.finished
}

// retry retires an assignment that produced no acceptable verdict. If
// the cube was superseded in flight — its children or a hedge twin
// carry it now — the result is only counted as discarded. Otherwise the
// cube goes back on the queue, or, when the failure is charged to its
// attempt budget and that is now exhausted, is quarantined so it is
// never reassigned again; quarantining the last unresolved cube ends
// the run.
func (co *coordinator) retry(a *partition.Assignment, reason string, charge bool) {
	if !co.sched.Release(a) {
		return
	}
	if charge && co.tracker.failed(a.Cube, reason) {
		co.sched.Abandon()
		sum := co.sched.Summary()
		co.mu.Lock()
		co.leafGoneLocked(sum)
		co.mu.Unlock()
		return
	}
	co.tally.add(func(r *CoordinatorResult) { r.Reassigned++ })
	co.sched.Requeue(a)
}

// noteSplit accounts for the split that made a's cube, which a's worker
// forced and the scheduler has already journaled.
func (co *coordinator) noteSplit(a *partition.Assignment) {
	victim := a.SplitOf
	stolen := victim.Worker != a.Worker
	cube := victim.Cube
	co.opts.Report.CubeFinish(report.CubeRow{
		Key: cube.Key(), From: cube.From, To: cube.To, Path: cube.Path,
		Worker: victim.Worker, Verdict: journal.VerdictSplit,
		Hardness: victim.Hardness, Stolen: stolen,
	})
}

// acceptParts folds an *accepted* result's per-partition breakdown into
// the metrics and the run report, and records the cube row. Discarded
// (superseded) results never reach here, so a hedge loser's cancelled
// rows cannot overwrite the winner's.
func (co *coordinator) acceptParts(a *partition.Assignment, reply *Message, key string, certified bool) {
	for _, row := range reply.Parts {
		// What the worker cannot say of its own row: who it is, whether its
		// evidence checked, and the one cause the job gave up on.
		row.Worker, row.Certified, row.Cause = key, certified, ""
		if row.Verdict == sat.Unknown.String() {
			row.Cause = reply.Cause
		}
		co.metrics.partRow(row)
		co.opts.Report.Merge(row)
	}
	co.opts.Report.CubeFinish(report.CubeRow{
		Key: a.Cube.Key(), From: a.Cube.From, To: a.Cube.To, Path: a.Cube.Path,
		Worker: key, Verdict: reply.Verdict, Cause: reply.Cause,
		SolveMillis: reply.Millis, Hedged: a.Hedge, Certified: certified,
	})
}

// awaitResult reads messages until the result for the assignment's job
// arrives. Each read is bounded by HeartbeatGrace, so a stalled worker is
// caught long before JobTimeout; the overall job deadline still applies.
// A result carrying the wrong JobID is a protocol violation (stale
// result misattribution) and fails the worker.
func (co *coordinator) awaitResult(wc *conn, a *partition.Assignment, key string) (*Message, error) {
	id, grace := a.JobID, co.opts.HeartbeatGrace
	deadline := time.Now().Add(co.opts.JobTimeout)
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, fmt.Errorf("job %d on %s: timeout after %v", id, key, co.opts.JobTimeout)
		}
		reply, err := wc.recv(min(grace, remain))
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return nil, fmt.Errorf("job %d on %s: no heartbeat within %v", id, key, grace)
			}
			return nil, fmt.Errorf("job %d on %s: %v", id, key, err)
		}
		switch reply.Type {
		case "heartbeat":
			if reply.JobID == id {
				co.opts.Health.touch(key)
				// The live counters are the straggler signal the split-victim
				// selection steers by, once the scheduler made a hardness of them.
				co.metrics.heartbeat(key, reply, co.sched.Note(a, reply.Conflicts, reply.Progress))
				for _, row := range reply.Parts {
					// A live row is the worker's word for its counters only.
					row.Worker, row.Verdict, row.Cause, row.Certified = key, "", "", false
					co.metrics.partRow(row)
					co.opts.Report.Merge(row)
				}
			}
			// A stale heartbeat from the previous job is harmless: skip.
		case "result":
			if reply.JobID != id {
				return nil, fmt.Errorf("job %d on %s: stale result for job %d", id, key, reply.JobID)
			}
			if reply.Error != "" {
				return nil, fmt.Errorf("job %d on %s: worker error: %s", id, key, reply.Error)
			}
			return reply, nil
		default:
			return nil, fmt.Errorf("job %d on %s: unexpected message %q", id, key, reply.Type)
		}
	}
}

// recordResult charges one job result that arrived to its worker and the
// run's tally (jobResult), and folds its spans into the report.
func (co *coordinator) recordResult(reply *Message, key string) {
	co.metrics.jobResult(key, reply.Stats, reply.SolveMillis)
	co.opts.Report.AddSpans(reply.Spans)
	if rs := reply.Restore; rs != nil {
		co.tally.add(func(r *CoordinatorResult) {
			r.Restores = append(r.Restores, WorkerRestore{Worker: key, TemplateRestore: *rs})
		})
	}
}
