package distrib

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sat"
	"repro/prog"
)

// What a worker does with one job: the run it belongs to is prepared
// once and held (preparedRun), the job's cubes are solved on clones of
// its template, and the result carries what the clones logged.

// preparedRun is what a worker keeps of a run between its jobs: the
// program encoded and the solver template its cubes' solvers are cloned
// from (core.Prepared), under the key of everything in a job that
// shapes them, and — once the template is built and if it logs proofs —
// the digest of what it logged, in place of the log.
type preparedRun struct {
	key    runKey
	prep   *core.Prepared
	prefix *sat.ProofDigest
}

// runKey names the run a job belongs to: its manifest, the budget, and
// whether its template logs proofs. The certify level varies from job to
// job under sampling; whether the run certifies at all does not, and a
// template that logs proofs serves the jobs that need none.
type runKey struct {
	manifest journal.Manifest
	budget   journal.Budget
	proofs   bool
}

// jobRun reads the run a job belongs to off its frame, hashing the source
// itself: a frame that names another program hash is refused.
func jobRun(m *Message) (runKey, error) {
	if m.RunManifest == nil {
		return runKey{}, fmt.Errorf("distrib: job %d names no run", m.JobID)
	}
	k := runKey{manifest: *m.RunManifest, budget: m.budget(), proofs: m.Certify == CertifyFull || m.Certify == CertifyModel}
	sha := journal.HashProgram(m.Source)
	if k.manifest.ProgramSHA256 != "" && k.manifest.ProgramSHA256 != sha {
		return runKey{}, fmt.Errorf("distrib: job %d names program %.12s, its source is %.12s", m.JobID, k.manifest.ProgramSHA256, sha)
	}
	k.manifest.ProgramSHA256 = sha
	return k, nil
}

// workerRun is the run a manifest describes, as core.Prepare wants it
// said. The range marks the run as one whose cubes arrive from outside;
// which range does not matter.
func workerRun(m journal.Manifest, budget journal.Budget, proofs bool) core.Options {
	return core.Options{
		Unwind: m.Unwind, Contexts: m.Contexts, Rounds: m.Rounds, Width: m.Width, Partitions: m.Partitions,
		To: max(m.Partitions, 1), Budget: budget, KeepProofs: proofs,
	}
}

// prepared returns the run a job belongs to, prepared: the one the
// worker holds, or another in its place, whose template the job's Run
// then builds.
func (w *worker) prepared(m *Message, key runKey, opts core.Options) (*preparedRun, error) {
	if w.run != nil && w.run.key == key {
		return w.run, nil
	}
	w.run = nil // the old run's template goes before the new one's encoding comes
	p, err := prog.Parse(m.Source)
	if err != nil {
		return nil, err
	}
	prep, err := core.Prepare(p, opts)
	if err != nil {
		return nil, err
	}
	// Neither what the template logs nor the formula, once its solver has
	// it, is kept: a worker ships tails and a digest.
	if opts.KeepProofs {
		prep.Template().DigestPrefix()
	}
	prep.LoadOnce()
	w.run = &preparedRun{key: key, prep: prep}
	return w.run, nil
}

// jobTracer returns the tracer of one job: when the job carries a
// TraceID it tees the worker's own sink (if any) with an in-memory
// collector whose events ship back on the result.
func (w *worker) jobTracer(m *Message) (*obs.Tracer, *obs.CollectorSink) {
	base, proc := w.opts.Tracer, w.procName()
	switch {
	case m.TraceID != "":
		coll := obs.NewCollectorSink()
		// The per-job proc name keeps span refs ("proc/id") unique even
		// though each job's tracer restarts its sequence: job IDs are
		// coordinator-unique for the run.
		return obs.NewTracer(obs.MultiSink(base.Sink(), coll)).
			WithProc(fmt.Sprintf("%s.j%d", proc, m.JobID)).
			WithTraceID(m.TraceID), coll
	case base != nil:
		return obs.NewTracer(base.Sink()).WithProc(proc).WithTraceID(base.TraceID()), nil
	}
	return nil, nil
}

// runJob executes one job: the cubes it names, on clones of the template
// of the run it belongs to, which the worker prepares when a job of
// another run, or its first, arrives. The deferred recover is the
// worker's panic boundary: a solver bug (or an injected FaultPanic)
// becomes a structured Error result instead of killing the process, so
// one poison chunk cannot take a whole worker down.
//
// When the job carries a TraceID, the worker joins the coordinator's
// trace: the job span is parented under the coordinator's wire-carried
// job span and the pipeline hangs off it.
func (w *worker) runJob(ctx context.Context, m *Message, progress *jobProgress, f *FaultEvent, memAbort <-chan struct{}) (reply *Message, cert *Certificate) {
	reply = &Message{Type: "result", JobID: m.JobID, Winner: -1}
	defer func() {
		if r := recover(); r != nil {
			reply = &Message{Type: "result", JobID: m.JobID, Winner: -1,
				Error: fmt.Sprintf("panic: %v", r)}
			cert = nil
			w.run = nil // whatever state the panic left it in
		}
	}()
	if f != nil && f.Kind == FaultPanic {
		panic(fmt.Sprintf("injected panic at job %d", f.Job))
	}
	// A straggler, not a corpse: heartbeats keep flowing (with zero
	// progress) while the job sits on its hands, so only the adaptive
	// scheduler — not the liveness monitor — can notice. The sleep aborts
	// promptly on cancel so a split/hedge supersession still frees the
	// worker.
	if f != nil && f.Kind == FaultSlow && f.Slow > 0 && !sleepCtx(ctx, f.Slow) {
		reply.Verdict, reply.Cause = core.Unknown.String(), sat.CauseCancelled.String()
		return reply, nil
	}
	jt, coll := w.jobTracer(m)
	jobSpan := jt.StartRemote("worker_job",
		obs.SpanContext{TraceID: m.TraceID, SpanID: m.ParentSpan},
		obs.KV("job", m.JobID), obs.KV("from", m.From), obs.KV("to", m.To))
	defer func() {
		if reply.Error != "" {
			jobSpan.End(obs.KV("error", reply.Error))
		} else {
			jobSpan.End(obs.KV("verdict", reply.Verdict))
		}
		reply.Spans = coll.Events()
	}()
	start := time.Now()
	if f != nil && f.Kind == FaultOtherTemplate {
		other := *m
		other.MemBudgetMB = f.MemMB
		m = &other
	}
	key, err := jobRun(m)
	if err != nil {
		reply.Error = err.Error()
		return reply, nil
	}
	opts := workerRun(key.manifest, key.budget, key.proofs)
	opts.Tracer, opts.Parent = jt, jobSpan
	if progress != nil {
		opts.Progress, opts.ProgressEvery = progress.update, liveProgressEvery
	}
	run, err := w.prepared(m, key, opts)
	if err != nil {
		reply.Error = err.Error()
		return reply, nil
	}
	opts.Cores, opts.MemAbort = w.opts.Cores, memAbort
	opts.From, opts.To, opts.CubePath = m.From, m.To+1, m.CubePath
	// The template logs proofs whenever the run certifies; a job keeps
	// its cubes' only when the coordinator wants them with this result.
	// The UNSAFE model is kept in any case.
	opts.KeepProofs = m.Certify == CertifyFull
	res, err := run.prep.Run(ctx, opts)
	aborted := false
	select {
	case <-memAbort:
		aborted = true
	default:
	}
	switch tpl := run.prep.Template(); {
	case aborted, !tpl.Ready():
		// The watchdog wants memory back, or a cancel cut the template's
		// build short: it goes with the cubes' solvers, and the next job
		// pays for another.
		w.run = nil
	case key.proofs && run.prefix == nil:
		// What the template logged is the coordinator's to derive, not
		// this worker's to ship: its digest is all that was kept of it.
		if d, err := tpl.PrefixDigest(ctx); err == nil {
			run.prefix = &d
		}
	}
	reply.Millis = time.Since(start).Milliseconds()
	if err != nil {
		reply.Error = err.Error()
		return reply, nil
	}
	if tpl := res.Template; tpl.Time > 0 && w.run == run {
		row := core.TemplateRow(tpl)
		reply.Template = &row
	}
	reply.fold(res)
	certSpan := jobSpan.Child("certify_build", obs.KV("level", m.Certify))
	cert = buildCertificate(res, m.Certify, run.prefix)
	certSpan.End()
	return reply, cert
}

// fold writes a finished run into its result frame: the verdict and its
// winner, the solver's time, and the per-partition search statistics, so
// the coordinator sees the remote search effort (load skew, conflict
// rates) instead of the stats dying with the worker process. Each
// partition's are its own, from the clone on, whichever worker ran it
// and whatever ran there before; its final row rides alongside.
func (m *Message) fold(res *core.Result) {
	m.Verdict = res.Verdict.String()
	m.SolveMillis = res.SolveTime.Milliseconds()
	var agg sat.Stats
	var cause sat.StopCause
	for _, inst := range res.Instances {
		agg.Add(inst.Stats)
		cause = cause.Worse(inst.Cause)
		m.Parts = append(m.Parts, core.PartitionRow(inst))
	}
	if res.Verdict == core.Unknown {
		// Name the dominant exhausted budget (sat.StopCause.Worse) so the
		// coordinator can tell a terminal budgeted Unknown (re-running
		// gives up again) from a retryable one: a mid-solve cancel (hedge
		// loser, split supersession), which it discards without charging
		// the attempt budget.
		m.Cause = cause.String()
	}
	m.Stats = &agg
	if res.Verdict == core.Unsafe {
		// res.Winner is the absolute partition index (the partition list
		// keeps its original indices across the subrange).
		m.Winner = res.Winner
	}
}
