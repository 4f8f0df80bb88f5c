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
	// Partitions is the total partition count (power of two).
	Partitions int
	// ChunkSize is the number of partitions per work unit (default:
	// Partitions / 8, at least 1).
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
	// JobTimeout (default 5s; negative disables heartbeats).
	HeartbeatInterval time.Duration
	// HeartbeatGrace is how long the coordinator waits without hearing a
	// heartbeat or result before declaring the worker stalled (default
	// 4 × HeartbeatInterval).
	HeartbeatGrace time.Duration
	// DrainTimeout is how long the coordinator waits for a worker to
	// (re)connect once chunks are pending but no workers remain, before
	// giving up with Unknown; reconnecting workers must come back within
	// this window (default 30s).
	DrainTimeout time.Duration
	// Budget bounds each cube's wall clock, solver conflicts and solver
	// memory on the worker; a cube that exhausts part of it comes back as
	// a terminal budgeted Unknown — journaled with the budget it gave up
	// under — instead of burning JobTimeout and an attempt. Independent
	// of Budget.MemMB, a worker whose own OOM watchdog trips reports
	// cause "memory" too; with no memory budget configured such an abort
	// is treated as worker-local (that machine ran out, not the chunk
	// being inherently too big) and the chunk is re-queued to the fleet
	// instead of journaled terminal.
	Budget journal.Budget
	// MemPauseRatio is the fleet memory-pressure backpressure threshold:
	// while any worker's heartbeat-reported live-heap/limit ratio is at
	// or above it, new job dispatch pauses until the pressure subsides
	// or the reading goes stale (HeartbeatGrace), so an overloaded fleet
	// drains instead of being handed more work. 0 defaults to 0.95;
	// negative disables the gate.
	MemPauseRatio float64
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
	// Epoch is the leadership fencing token stamped into the welcome
	// handshake and every job (see Lease). Workers that have seen a
	// higher epoch refuse this coordinator, so a deposed primary that
	// revives after a failover cannot hand out stale work. 0 for
	// standalone (non-HA) runs.
	Epoch int64
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
	// and those with a definite SAFE/UNSAFE verdict, replays included.
	ChunksTotal, ChunksDecided int
	// RemoteStats aggregates the search statistics of every remote job
	// result (including retried attempts), so distributed runs report
	// the same solver telemetry as local ones. A partition's statistics
	// are its own — they start where its solver was cloned from the
	// worker's template — so the sum is the in-process runner's for the
	// same partitions, whichever worker ran which; what the templates
	// themselves did is in Templates.
	RemoteStats sat.Stats
	// Templates accounts for every solver template a worker built for
	// this run, in the order their jobs' results arrived: one per worker,
	// unless a memory abort or another run cost it its first.
	Templates []WorkerTemplate
	// SolveMillis sums the remote per-job solver wall time — the total
	// search effort spent across the cluster, as opposed to Wall. A
	// worker's template is part of the job that built it.
	SolveMillis int64
	// CertifyMillis sums the coordinator-side certificate verification
	// time, the overhead certification adds on top of SolveMillis: each
	// certificate's check, and once per run the derivation of the proof
	// checker they are all put to (the coordinator's own template, and
	// the checker loaded and extended by what it logged).
	CertifyMillis int64
	// CertifyWork sums what the proof checker did in that time: lemmas
	// put to the RUP test and literals propagated, over the prefix (with
	// the first tail) and accepted and rejected proofs alike — the
	// counterpart of RemoteStats — and how many of the lemmas hints refuted
	// (Hinted) or failed to (Fallbacks: a fleet that mixes builds shows
	// up here, not as a slow coordinator nobody can explain).
	CertifyWork sat.ProofCheckerStats
	// Certified counts definite verdicts accepted with a verified
	// certificate; CertRejected counts results whose certificate was
	// rejected (each rejection also marks its worker untrusted).
	Certified, CertRejected int
	// CertBytes sums the wire size of the accepted certificates.
	CertBytes int64
	// MemoryAborted counts chunk results that came back with cause
	// "memory" (solver over its budget, or worker OOM-watchdog trip).
	MemoryAborted int
	// DispatchPaused counts backpressure episodes: times job dispatch
	// paused because fleet memory pressure crossed MemPauseRatio.
	DispatchPaused int
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

// WorkerTemplate is one worker's account of the solver template it built
// for the run: the same row an in-process run's report has.
type WorkerTemplate struct {
	Worker string
	report.TemplateRow
}

// coordinator is the shared state of one Coordinate call.
type coordinator struct {
	opts   CoordinatorOptions
	source string

	mu       sync.Mutex
	active   int // connected workers past hello
	finished bool
	killed   bool // fault plan halted the primary mid-run
	drain    *time.Timer
	res      *CoordinatorResult
	conns    map[*conn]struct{}
	pressure map[string]workerPressure // per-worker heartbeat memory readings

	// sched owns the cube queue, the live-leaf count, the
	// split/hedge/fence policy and the run's ledger (journal, intake,
	// verdict fold); this file is its TCP executor.
	sched    *partition.Scheduler
	done     chan struct{}
	tracker  *chunkTracker
	health   *HealthRegistry
	metrics  *coordMetrics
	repl     *replicator   // live journal replication fan-out; nil without a journal
	verifier *certVerifier // nil iff certification is off
	recorder *report.Recorder
	root     *obs.Span // the run's "coordinate" span (nil when untraced)
}

// setDefaults fills in every knob the caller left at its zero value.
func (o *CoordinatorOptions) setDefaults() {
	if o.ChunkSize == 0 {
		o.ChunkSize = max(1, o.Partitions/8)
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
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 30 * time.Second
	}
	if o.MemPauseRatio == 0 {
		o.MemPauseRatio = 0.95
	}
	o.Certify = o.Certify.normalize()
}

// Coordinate serves the analysis of program p over the workers that
// connect to ln. It returns when every chunk is refuted (Safe), a worker
// reports a counterexample (Unsafe: all other workers receive stop),
// every unresolved chunk is quarantined or no workers remain (Unknown,
// with the failure log populated), or the context is cancelled.
func Coordinate(ctx context.Context, ln net.Listener, p *prog.Program, opts CoordinatorOptions) (*CoordinatorResult, error) {
	if opts.Partitions < 1 {
		return nil, fmt.Errorf("distrib: partition count must be >= 1")
	}
	opts.setDefaults()
	chunks := partition.Chunks(opts.Partitions, opts.ChunkSize)
	source := prog.Format(p)

	// The coordinator encodes the program itself, once per run, when it
	// needs what only the encoding can tell: with certification on, the
	// root of trust every remote certificate is checked against; with
	// splitting on, how many scheduler bits there are to split on.
	var verifier *certVerifier
	splitBits := 0
	if opts.Certify.Enabled() || opts.Split.Depth > 0 {
		own, err := newCertVerifier(p, opts)
		if err != nil {
			return nil, err
		}
		splitBits = len(own.prep.SplitLits())
		if opts.Certify.Enabled() {
			verifier = own
		}
	}
	// The journal pins everything that gives a chunk's [From,To] range
	// its meaning; a committed record replays only into the exact same
	// run configuration.
	var jnl *journal.Journal
	var repl *replicator
	if opts.JournalPath != "" {
		var jerr error
		jnl, jerr = journal.OpenRun(opts.JournalPath, opts.Resume, journal.Manifest{
			ProgramSHA256: journal.HashProgram(source),
			Unwind:        opts.Unwind,
			Contexts:      opts.Contexts,
			Width:         opts.Width,
			Partitions:    opts.Partitions,
			From:          0,
			To:            opts.Partitions,
			ChunkSize:     opts.ChunkSize,
		})
		if jerr != nil {
			return nil, jerr
		}
		jnl.SetTracer(opts.Tracer)
		defer jnl.Close()
		// Connected standbys tail every committed record live, so their
		// local journal copies stay promotion-ready. Seeded with the
		// history a resumed run already holds.
		repl, jerr = newReplicator(jnl.Manifest(), jnl.Committed())
		if jerr != nil {
			return nil, jerr
		}
	}

	health := opts.Health
	if health == nil {
		health = NewHealthRegistry()
	}
	opts.Report.SetManifest(report.Manifest{
		Program:    opts.ProgramName,
		ProgramSHA: journal.HashProgram(source),
		Unwind:     opts.Unwind,
		Contexts:   opts.Contexts,
		Width:      opts.Width,
		Partitions: opts.Partitions,
		Mode:       "distributed",
		TraceID:    opts.Tracer.TraceID(),
	})
	root := opts.Tracer.Start("coordinate",
		obs.KV("partitions", opts.Partitions), obs.KV("chunks", len(chunks)),
		obs.KV("epoch", opts.Epoch))
	start := time.Now()
	co := &coordinator{
		opts:     opts,
		source:   source,
		res:      &CoordinatorResult{},
		pressure: make(map[string]workerPressure),
		conns:    make(map[*conn]struct{}),
		done:     make(chan struct{}),
		tracker:  newChunkTracker(opts.MaxAttempts),
		health:   health,
		metrics:  newCoordMetrics(opts.Metrics),
		repl:     repl,
		verifier: verifier,
		recorder: opts.Report,
		root:     root,
	}
	co.sched = partition.NewScheduler(partition.SchedOptions{
		SplitPolicy: opts.Split, SplitBits: splitBits, Hedge: opts.Hedge,
		Journal: jnl, Budget: opts.Budget,
		Paths:         true, // a worker derives the split literals from its job
		CertifiedOnly: verifier != nil,
		// Backpressure: while the fleet is over the memory-pressure
		// threshold nothing is dispatched, split, or hedged.
		Gate: co.dispatchGate,
	})
	// Journal commit spans hang off the coordinate root so the merged
	// trace tree stays single-rooted.
	jnl.SetParent(root)
	jnl.Observe(co.committed)

	// Intake: what the journal already decided is folded, the rest queued.
	co.sched.Resume(chunks)
	sum := co.sched.Summary()
	co.metrics.chunksTotal.Set(int64(sum.Total))
	co.metrics.cubeDepth.Set(int64(sum.MaxDepth))
	co.metrics.chunksResumed.Add(int64(sum.Resumed))
	co.metrics.chunksRemaining.Set(int64(sum.Live))
	var deriveErr error
	if sum.Sat || sum.Live == 0 {
		co.finish() // the journal already decides the run: nothing to hand out
	} else if verifier != nil {
		// The proof checker every SAFE certificate of the run is put to is
		// derived here, once, before the first job goes out: the template,
		// built as every honest worker builds its, streams its log into it.
		start, tpl := time.Now(), verifier.prep.Template()
		verifier.prefix, deriveErr = tpl.PrefixDigest(ctx)
		tpl.Drop()
		setup := time.Since(start)
		co.res.CertifyMillis += setup.Milliseconds()
		co.metrics.certifySeconds.Observe(setup.Seconds())
		if deriveErr != nil {
			co.finish()
		}
	}

	// Stop accepting when finished or cancelled.
	go func() {
		select {
		case <-co.done:
		case <-ctx.Done():
			co.finish()
		}
		ln.Close()
	}()

	var wg sync.WaitGroup
	for {
		c, err := ln.Accept()
		if err != nil {
			break // listener closed: finished or cancelled
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			co.serve(c)
		}()
	}
	wg.Wait()
	if deriveErr != nil && ctx.Err() == nil {
		return nil, fmt.Errorf("distrib: the coordinator's own template logged a prefix that does not check: %w", deriveErr)
	}
	return co.result(start)
}

// result assembles the run's outcome once every connection is served:
// verdict and coverage are the scheduler's fold, the rest the transport's.
func (co *coordinator) result(start time.Time) (*CoordinatorResult, error) {
	sum := co.sched.Summary()
	co.surfaceSeal(sum)
	co.mu.Lock()
	if co.drain != nil {
		co.drain.Stop()
	}
	res, killed := co.res, co.killed
	co.mu.Unlock()
	res.Verdict, res.Winner = partition.Verdict(sum, core.Unsafe, core.Safe, core.Unknown), sum.Winner
	res.ChunksTotal, res.ChunksDecided, res.Resumed = sum.Total, sum.Decided, sum.Resumed
	res.Exhausted = sum.Exhausted
	res.Splits, res.Hedges, res.Steals = sum.Splits, sum.Hedges, sum.Steals
	res.Superseded, res.MaxCubeDepth = sum.Superseded, sum.MaxDepth
	res.JournalSealed, res.JournalSealCause = sum.SealCause != "", sum.SealCause
	res.Quarantined = co.tracker.failureLog()
	res.Attempts = co.tracker.attempts()
	res.Workers = co.health.Snapshot()
	res.Wall = time.Since(start)
	co.root.End(obs.KV("verdict", res.Verdict.String()))
	co.recorder.SetVerdict(res.Verdict.String(), res.Wall)
	if res.MemoryAborted > 0 {
		co.recorder.Warn(fmt.Sprintf("%d chunk result(s) aborted on memory (solver budget or worker OOM watchdog)", res.MemoryAborted))
	}
	if sum.Err != nil {
		// A verdict the journal could not make durable must not be
		// acknowledged: a resume would re-derive a different history.
		return nil, sum.Err
	}
	if killed {
		return nil, ErrPrimaryKilled
	}
	return res, nil
}

// committed is the journal's observer: what rides on a commit, run under
// the lock that orders commits. So every standby's copy carries the
// records in the primary's exact journal order, strictly after the local
// fsync: a verdict a standby inherits is one the primary made durable.
func (co *coordinator) committed(rec journal.ChunkRecord, commits int) {
	replSpan := co.root.Child("replicate_fanout",
		obs.KV("from", rec.From), obs.KV("to", rec.To))
	co.repl.append(rec)
	replSpan.End()
	co.metrics.journalCommits.Inc()
	if co.opts.Faults.killAt(commits) {
		co.kill()
	}
}

// surfaceSeal makes a sealed journal loud while the run goes on: losing
// the disk must not throw away a fleet's work. Both calls are idempotent.
func (co *coordinator) surfaceSeal(sum partition.Summary) {
	if sum.SealCause != "" {
		co.metrics.journalSealed.Set(1)
		co.recorder.Warn(partition.SealWarning(sum.SealCause))
	}
}

// kill is the simulated SIGKILL of CoordinatorFaultPlan.KillAfterJobs:
// tear everything down with no farewell. The done channel closes the
// listener; closing every live connection makes each serve goroutine
// fail mid-protocol exactly as a dead process would.
func (co *coordinator) kill() {
	co.mu.Lock()
	co.killed = true
	co.finishLocked()
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

// finishLocked ends the run and releases every serve loop waiting for
// work; callers hold co.mu.
func (co *coordinator) finishLocked() {
	if !co.finished {
		co.finished = true
		close(co.done)
		co.sched.Close()
	}
}

// workerJoined/workerLeft keep the connected-worker count and arm the
// drain timer when the last worker leaves with chunks still pending —
// the state in which the old coordinator would block on Accept forever.
func (co *coordinator) workerJoined() {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.active++
	co.metrics.workersActive.Set(int64(co.active))
	if co.drain != nil {
		co.drain.Stop()
		co.drain = nil
	}
}

func (co *coordinator) workerLeft() {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.active--
	co.metrics.workersActive.Set(int64(co.active))
	if co.active == 0 && co.sched.Live() > 0 && !co.finished {
		if co.drain != nil {
			co.drain.Stop()
		}
		co.drain = time.AfterFunc(co.opts.DrainTimeout, co.drainExpired)
	}
}

func (co *coordinator) drainExpired() {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.active == 0 && co.sched.Live() > 0 && !co.finished {
		co.res.Drained = true
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
	key := co.health.connected(hello.WorkerName, c.RemoteAddr().String())
	if co.health.isUntrusted(key) {
		// A worker caught lying once is refused for the rest of the run:
		// its verdicts cannot be believed, certified or not.
		_ = wc.send(&Message{Type: "stop"})
		return
	}
	// The welcome pins this coordinator's role and lease epoch before
	// any job: a worker that has already served a higher epoch refuses
	// the whole session here, which is the split-brain fence.
	if err := wc.send(&Message{Type: "welcome", Role: RolePrimary, Epoch: co.opts.Epoch}); err != nil {
		return
	}
	co.workerJoined()
	defer co.workerLeft()
	// The per-worker live gauges stop rendering once the worker is gone
	// (its jobs/failures counters remain as history); without this, every
	// evicted or quarantined worker would be scraped with its last
	// readings forever.
	defer co.metrics.dropWorker(key)

	hbMillis := co.opts.HeartbeatInterval.Milliseconds()
	if co.opts.HeartbeatInterval < 0 {
		hbMillis = 0
	}
	cancel := func(a *partition.Assignment) {
		_ = wc.send(&Message{Type: "cancel", JobID: a.JobID})
	}
	for {
		// A queued cube, the stolen child of a straggler this worker just
		// split, or a hedged duplicate; nil when the run is over.
		a := co.sched.Acquire(key, cancel)
		if a == nil {
			co.finish() // if not already: the journal may have failed under a split
			_ = wc.send(&Message{Type: "stop"})
			return
		}
		if a.Hedge {
			co.metrics.chunksHedged.Inc()
		}
		if a.SplitOf != nil {
			co.noteSplit(a)
		}
		cube, id := a.Cube, a.JobID
		co.tracker.assigned(cube)
		level := co.opts.Certify.jobLevel(id)
		// The job span is the cross-process graft point: its context
		// rides on the wire, the worker parents its own job span under
		// it, and the merged trace shows one tree per run.
		jobSpan := co.root.Child("job",
			obs.KV("job", id), obs.KV("cube", cube.Key()),
			obs.KV("worker", key), obs.KV("hedge", a.Hedge))
		sc := jobSpan.Context()
		job := &Message{
			Type: "job", JobID: id, Epoch: co.opts.Epoch, Source: co.source,
			Unwind: co.opts.Unwind, Contexts: co.opts.Contexts, Width: co.opts.Width,
			Partitions: co.opts.Partitions, From: cube.From, To: cube.To,
			CubePath:        cube.Path,
			HeartbeatMillis: hbMillis,
			Certify:         level,
			TraceID:         sc.TraceID,
			ParentSpan:      sc.SpanID,
		}
		job.setBudget(co.opts.Budget)
		reply, certified, err := co.runJob(wc, a, key, job, jobSpan)
		if err != nil {
			jobSpan.End(obs.KV("error", err.Error()))
			if errors.Is(err, errCertificate) {
				// A rejected certificate condemns the worker, not the cube:
				// the cube is re-queued elsewhere at no attempt cost.
				co.rejectCertificate(a, key, err.Error())
				_ = wc.send(&Message{Type: "stop"})
			} else {
				co.failAssignment(a, key, err.Error())
			}
			return
		}
		co.health.jobDone(key)
		co.metrics.jobResult(key, reply.Stats, reply.SolveMillis)
		co.recordRemoteStats(reply, key)
		jobSpan.End(obs.KV("verdict", reply.Verdict), obs.KV("certified", certified))
		co.recorder.AddSpans(reply.Spans)

		cause := sat.ParseStopCause(reply.Cause)
		if !definite(reply.Verdict) && cause == sat.CauseMemory {
			co.noteMemoryAbort()
		}
		switch {
		case definite(reply.Verdict), cause.Budgeted() && (cause != sat.CauseMemory || co.opts.Budget.MemMB > 0):
			// A budgeted Unknown is as terminal as a verdict: the same cube
			// under the same budgets gives up again, so it is journaled and
			// not charged to the retry budget.
			if !co.settle(wc, a, reply, key, certified) {
				return
			}
		case cause == sat.CauseCancelled:
			// The expected fate of a superseded assignment: the worker
			// acknowledged the cancel. A cancelled result for a cube that
			// was *not* superseded (a worker-local interrupt) is a normal
			// retryable failure.
			co.retry(a, fmt.Sprintf("job %d on %s: cancelled", id, key), true)
		case cause == sat.CauseMemory:
			// With no configured memory budget, a "memory" result is the
			// worker's own OOM watchdog tripping: that machine ran out, not
			// the cube being deterministically too big. Re-queue it —
			// another worker (or the same one, once its heap drains) may
			// have the headroom. The attempt budget still bounds how often
			// this can loop.
			co.retry(a, fmt.Sprintf("job %d on %s: memory watchdog abort", id, key), true)
		default:
			// Retryable Unknown: a failed attempt, but the connection stays
			// usable.
			co.retry(a, fmt.Sprintf("job %d on %s: verdict %s", id, key, reply.Verdict), true)
		}
	}
}

// runJob sends one job and reads its outcome off the wire: the result,
// the certificate frames that follow it, and — trust-but-verify — the
// check of a definite verdict's evidence (certify). An error wrapping
// errCertificate is the worker's fault and condemns it; any other error
// is a failed attempt.
func (co *coordinator) runJob(wc *conn, a *partition.Assignment, key string, job *Message, jobSpan *obs.Span) (reply *Message, certified bool, err error) {
	id, heartbeats := a.JobID, job.HeartbeatMillis > 0
	if err := wc.send(job); err != nil {
		return nil, false, fmt.Errorf("send job %d to %s: %v", id, key, err)
	}
	if reply, err = co.awaitResult(wc, a, key, heartbeats); err != nil {
		return nil, false, err
	}
	// The certificate frames follow the result and must be drained even
	// when certification is off, to keep the stream in sync.
	cert, err := co.readCertificate(wc, id, key, reply, heartbeats)
	if err != nil {
		return nil, false, err
	}
	if co.verifier == nil || !definite(reply.Verdict) {
		return reply, false, nil
	}
	certified, err = co.certify(a, key, job.Certify, reply, cert, jobSpan)
	return reply, certified, err
}

// settle files a terminal result — UNSAFE, SAFE or a budgeted UNKNOWN —
// with the scheduler: a result for a cube that was split, or whose hedge
// twin already won, loses the claim and is discarded here, never
// journaled, never charged; a winner is committed before the run
// acknowledges it. settle reports whether the serve loop goes on: false
// once the run is finished (the worker is told to stop).
func (co *coordinator) settle(wc *conn, a *partition.Assignment, reply *Message, key string, certified bool) bool {
	if !co.sched.Claim(a) {
		co.metrics.supersededResults.Inc()
		return true
	}
	co.acceptParts(a, reply, key, certified)
	verdict := reply.Verdict
	if !definite(verdict) {
		// Whatever else the wire said, it is a give-up on reply.Cause.
		verdict = core.Unknown.String()
		co.metrics.budgetExhausted.Inc()
	}
	err := co.sched.Commit(a, partition.Outcome{
		Verdict: verdict, Winner: reply.Winner, Cause: reply.Cause,
		Millis: reply.Millis, Certified: certified,
	})
	sum := co.sched.Summary()
	co.surfaceSeal(sum)
	if err != nil {
		co.finish()
		return false
	}
	co.mu.Lock()
	co.res.Jobs++
	if sum.Sat {
		co.finishLocked()
	}
	fin := co.leafGoneLocked()
	co.mu.Unlock()
	if fin {
		_ = wc.send(&Message{Type: "stop"})
	}
	return !fin
}

// definite reports a remote verdict that decides its cube.
func definite(verdict string) bool {
	return verdict == core.Unsafe.String() || verdict == core.Safe.String()
}

// leafGoneLocked publishes the live-leaf count after a cube was decided
// or quarantined, ends the run with the last one, and reports whether
// the run is finished; callers hold co.mu.
func (co *coordinator) leafGoneLocked() bool {
	live := co.sched.Live()
	co.metrics.chunksRemaining.Set(int64(live))
	if live == 0 {
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
		co.metrics.supersededResults.Inc()
		return
	}
	if charge && co.tracker.failed(a.Cube, reason) {
		co.metrics.quarantined.Inc()
		co.sched.Abandon()
		co.mu.Lock()
		co.leafGoneLocked()
		co.mu.Unlock()
		return
	}
	co.metrics.reassigned.Inc()
	co.mu.Lock()
	co.res.Reassigned++
	co.mu.Unlock()
	co.sched.Requeue(a.Cube)
}

// noteMemoryAbort counts one result that came back with cause "memory".
func (co *coordinator) noteMemoryAbort() {
	co.metrics.memoryAborted.Inc()
	co.mu.Lock()
	co.res.MemoryAborted++
	co.mu.Unlock()
}

// noteSplit accounts for the split that made a's cube, which a's worker
// forced and the scheduler has already journaled.
func (co *coordinator) noteSplit(a *partition.Assignment) {
	victim := a.SplitOf
	stolen := victim.Worker != a.Worker
	co.metrics.cubesSplit.Inc()
	if stolen {
		co.metrics.cubeSteals.Inc()
	}
	sum := co.sched.Summary()
	co.metrics.chunksTotal.Set(int64(sum.Total)) // one live cube became two
	co.metrics.chunksRemaining.Set(int64(sum.Live))
	co.metrics.cubeDepth.Set(int64(sum.MaxDepth)) // only a split deepens the tree
	cube := victim.Cube
	co.recorder.CubeFinish(report.CubeRow{
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
		co.recorder.Merge(row)
	}
	co.recorder.CubeFinish(report.CubeRow{
		Key: a.Cube.Key(), From: a.Cube.From, To: a.Cube.To, Path: a.Cube.Path,
		Worker: key, Verdict: reply.Verdict, Cause: reply.Cause,
		SolveMillis: reply.Millis, Hedged: a.Hedge, Certified: certified,
	})
}

// awaitResult reads messages until the result for the assignment's job
// arrives. With heartbeats enabled each read is bounded by
// HeartbeatGrace, so a stalled worker is caught long before JobTimeout;
// the overall job deadline still applies. A result carrying the wrong
// JobID is a protocol violation (stale result misattribution) and fails
// the worker.
func (co *coordinator) awaitResult(wc *conn, a *partition.Assignment, key string, heartbeats bool) (*Message, error) {
	id := a.JobID
	deadline := time.Now().Add(co.opts.JobTimeout)
	grace := co.opts.JobTimeout
	if heartbeats && co.opts.HeartbeatGrace < grace {
		grace = co.opts.HeartbeatGrace
	}
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, fmt.Errorf("job %d on %s: timeout after %v", id, key, co.opts.JobTimeout)
		}
		to := grace
		if to > remain {
			to = remain
		}
		reply, err := wc.recv(to)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() && heartbeats {
				return nil, fmt.Errorf("job %d on %s: no heartbeat within %v", id, key, grace)
			}
			return nil, fmt.Errorf("job %d on %s: %v", id, key, err)
		}
		switch reply.Type {
		case "heartbeat":
			if reply.JobID == id {
				co.health.touch(key)
				co.metrics.heartbeat(key, reply)
				co.notePressure(key, reply.MemBytes, reply.MemLimit)
				// The live hardness reading is the straggler signal the
				// split-victim selection steers by.
				co.sched.Note(a, reply.Hardness)
				for _, row := range reply.Parts {
					// A live row is the worker's word for its counters only.
					row.Worker, row.Verdict, row.Cause, row.Certified = key, "", "", false
					co.metrics.partRow(row)
					co.recorder.Merge(row)
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

// recordRemoteStats folds one job result's search statistics into the
// run aggregate (all results count, retried attempts included: the
// aggregate measures search effort spent, not effort kept).
func (co *coordinator) recordRemoteStats(reply *Message, key string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if reply.Stats != nil {
		co.res.RemoteStats.Add(*reply.Stats)
	}
	if reply.Template != nil {
		co.res.Templates = append(co.res.Templates, WorkerTemplate{Worker: key, TemplateRow: *reply.Template})
	}
	co.res.SolveMillis += reply.SolveMillis
}

// failAssignment charges a failed attempt to the worker, and — unless
// the cube was superseded in flight — to the cube as well.
func (co *coordinator) failAssignment(a *partition.Assignment, key, reason string) {
	co.health.failed(key)
	co.metrics.workerFailed(key)
	co.retry(a, reason, true)
}
