package distrib

import (
	"context"
	"crypto/sha256"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sat"
	"repro/prog"
)

// What a worker does with one job: the run it belongs to is prepared
// once and held (preparedRun), its solver template restored from the
// snapshot the coordinator sent ahead of the connection's first job —
// a worker never loads the formula into a solver, nor simplifies it —
// the job's cubes are solved on clones of the template, and the result
// carries what the clones logged.

// maxTemplateBytes caps the declared size of a run's template stream. A
// snapshot takes a few bytes a literal of the simplified clause set and
// of the elimination stack: 1.1 MB for es.u2.c5.p16's 60 000 clauses.
const maxTemplateBytes = 256 << 20

// shippedTemplate is a run's template as a coordinator sent it: the
// snapshot and its SHA-256, by which a worker that holds a template knows
// whether it is the one it was sent.
type shippedTemplate struct {
	data []byte
	sum  [sha256.Size]byte
}

// TemplateRestore accounts for a worker's restore of the run's template:
// its time, part of the job's, and the bytes it was restored from.
type TemplateRestore struct {
	Millis int64 `json:"millis"`
	Bytes  int64 `json:"bytes"`
}

// preparedRun is what a worker keeps of a run between its jobs: the
// program encoded, with the solver template its cubes' solvers are cloned
// from (core.Prepared), under the key of everything in a job that shapes
// them, and the template as it was shipped, to restore it from again
// after a watchdog trip or a run's only cube used it up.
type preparedRun struct {
	key  runKey
	prep *core.Prepared
	tpl  *shippedTemplate
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

// prepared returns the run a job belongs to with its template restored:
// the one the worker holds, if it is the job's run and its template the
// one this connection was sent, or another in its place. A held run
// whose template was used up or dropped restores it again from the bytes
// it keeps, without asking the coordinator for them. restored accounts
// for a restore this call made; f, a FaultOtherTemplate, has the run
// restore an altered template instead.
func (w *worker) prepared(m *Message, key runKey, opts core.Options, f *FaultEvent) (run *preparedRun, restored *TemplateRestore, err error) {
	run = w.run
	fresh := run == nil || run.key != key || run.tpl.sum != w.shipped.sum
	if fresh {
		w.run = nil // the old run's template goes before the new one's encoding comes
		p, err := prog.Parse(m.Source)
		if err != nil {
			return nil, nil, err
		}
		prep, err := core.Prepare(p, opts)
		if err != nil {
			return nil, nil, err
		}
		run = &preparedRun{key: key, prep: prep, tpl: w.shipped}
	}
	if fresh || !run.prep.Template().Ready() {
		span := opts.Parent.Child("template_restore", obs.KV("bytes", len(run.tpl.data)))
		start, data := time.Now(), run.tpl.data
		if f != nil && f.Kind == FaultOtherTemplate {
			data, err = otherTemplate(data, run.prep)
		}
		if err == nil {
			err = run.prep.Restore(data)
		}
		if err != nil {
			span.End(obs.KV("error", err.Error()))
			return nil, nil, err
		}
		restored = &TemplateRestore{Millis: time.Since(start).Milliseconds(), Bytes: int64(len(data))}
		span.End(obs.KV("clauses", run.prep.Template().Result().ClausesOut))
	}
	w.run = run
	return run, restored, nil
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
// of the run it belongs to, which the worker prepares, and restores from
// what the connection was sent, when a job of another run, or its first,
// arrives. The deferred recover is the worker's panic boundary: a solver
// bug (or an injected FaultPanic) becomes a structured Error result
// instead of killing the process, so one poison chunk cannot take a
// whole worker down.
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
	key, err := jobRun(m)
	if err != nil {
		reply.Error = err.Error()
		return reply, nil
	}
	if w.shipped == nil {
		// What a coordinator of an earlier build sends: a worker has no
		// template to solve on, and no way to make one from the formula.
		reply.Error = fmt.Sprintf("distrib: job %d came with no solver template before it on this connection (is the coordinator of another build?)", m.JobID)
		return reply, nil
	}
	opts := workerRun(key.manifest, key.budget, key.proofs)
	opts.Tracer, opts.Parent = jt, jobSpan
	if progress != nil {
		opts.Progress, opts.ProgressEvery = progress.update, liveProgressEvery
	}
	if f != nil && f.Kind == FaultOtherTemplate {
		w.run = nil // a template of its own making, for this job alone
	}
	run, restored, err := w.prepared(m, key, opts, f)
	if err != nil {
		reply.Error = err.Error()
		return reply, nil
	}
	reply.Restore = restored
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
	switch {
	case f != nil && f.Kind == FaultOtherTemplate:
		w.run = nil
	case aborted:
		// The watchdog wants memory back: the template goes with the cubes'
		// solvers, and the next job restores it from the bytes the run keeps.
		run.prep.Template().Drop()
	}
	reply.Millis = time.Since(start).Milliseconds()
	if err != nil {
		reply.Error = err.Error()
		return reply, nil
	}
	reply.fold(res)
	certSpan := jobSpan.Child("certify_build", obs.KV("level", m.Certify))
	cert = buildCertificate(res, m.Certify)
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

// otherTemplate is FaultOtherTemplate's template: the shipped one with
// a clause of the worker's own added at the top level — the unit of the
// run's first split literal, as if the worker had fixed for every cube
// the bit a split fixes first (the first assumption of the run's first
// partition, in a run without split literals). The proofs of a cube's
// search on it are honest for that clause set, and refused by the
// coordinator's checker at the first lemma that leans on the unit.
func otherTemplate(data []byte, prep *core.Prepared) ([]byte, error) {
	s, err := sat.Restore(data, sat.Options{})
	if err != nil {
		return nil, err
	}
	own := append(slices.Clip(prep.SplitLits()), prep.Partitions()[0].Assumptions...)
	if len(own) > 0 {
		s.AddClause(own[0])
	}
	return s.Snapshot(), nil
}
