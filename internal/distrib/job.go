package distrib

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"repro/internal/cnf"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/sat"
)

// What a worker does with one job: it solves the job's cubes, under the
// assumption literals the coordinator put in the job, on clones of the
// run's solver template, which it restored from the snapshot the
// coordinator sent ahead of the connection's first job, and ships back
// the verdict, the statistics and the evidence. It never sees the
// program: it loads no formula, runs no front end, and replays no
// counterexample — the coordinator replays every one on its own encoding.

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

// heldRun is what a worker keeps of a run between its jobs: the template
// restored from the bytes the connection was sent, under the key of what
// shapes it. The bytes themselves stay the connection's (worker.shipped):
// the key names them, and they restore the template again after a
// watchdog trip dropped it or a run's only cube used it up.
type heldRun struct {
	key runKey
	tpl *parallel.Template
}

// runKey names the run a job belongs to: the template's bytes, the
// budget, and whether the template logs proofs. The certify level varies
// from job to job under sampling; whether the run certifies at all does
// not, and a template that logs proofs serves the jobs that need none.
type runKey struct {
	template [sha256.Size]byte
	budget   journal.Budget
	proofs   bool
}

// held returns the template of the job's run, restored: the one the
// worker holds, if it is the run's and still holds its solver, or one
// restored from the bytes the connection was sent — told the run's
// partition count by the job's manifest. restored accounts for a restore
// this call made; f, a FaultOtherTemplate, has it restore an altered
// template instead.
func (w *worker) held(m *Message, key runKey, parent *obs.Span, f *FaultEvent) (run *heldRun, restored *TemplateRestore, err error) {
	if run = w.run; run != nil && run.key == key && run.tpl.Ready() {
		return run, nil, nil
	}
	w.run = nil // the old template goes before the new one comes
	span := parent.Child("template_restore", obs.KV("bytes", len(w.shipped.data)))
	start, data := time.Now(), w.shipped.data
	if f != nil && f.Kind == FaultOtherTemplate {
		data, err = otherTemplate(data, m.Assume)
	}
	var tpl *parallel.Template
	if err == nil {
		tpl, err = parallel.Restored(data, m.Partitions, parallel.Options{
			KeepProofs: key.proofs, Budget: key.budget, ProgressEvery: liveProgressEvery,
		})
	}
	if err != nil {
		span.End(obs.KV("error", err.Error()))
		return nil, nil, err
	}
	restored = &TemplateRestore{Millis: time.Since(start).Milliseconds(), Bytes: int64(len(data))}
	span.End(obs.KV("clauses", tpl.Result().ClausesOut))
	w.run = &heldRun{key: key, tpl: tpl}
	return w.run, restored, nil
}

// jobCubes reads a job's cubes off its frame: the partitions From..To of
// the run, each under the assumption literals the coordinator sent for
// it. The frame is outside input, so it is checked before anything is
// solved: a range outside the run's partitions, a count of assumption
// lists that does not match the range, and a literal that is not one
// over the template's vars variables are refused.
func jobCubes(m *Message, vars int) ([]partition.Partition, error) {
	if m.From < 0 || m.To < m.From || m.To >= m.Partitions {
		return nil, fmt.Errorf("distrib: job %d: partitions %d..%d of a run of %d", m.JobID, m.From, m.To, m.Partitions)
	}
	if len(m.Assume) != m.To-m.From+1 {
		return nil, fmt.Errorf("distrib: job %d: %d assumption lists for partitions %d..%d", m.JobID, len(m.Assume), m.From, m.To)
	}
	parts := make([]partition.Partition, len(m.Assume))
	for i, lits := range m.Assume {
		for _, l := range lits {
			if l < 2 || int(l.Var()) > vars {
				return nil, fmt.Errorf("distrib: job %d: assumption %d of partition %d is no literal of the template's %d variables", m.JobID, int(l), m.From+i, vars)
			}
		}
		parts[i] = partition.Partition{Index: m.From + i, Assumptions: lits}
	}
	return parts, nil
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

// runJob executes one job: the cubes it names, on clones of the run's
// template, which the worker restores from what the connection was sent
// when a job of another run, or its first, arrives. The deferred recover
// is the worker's panic boundary: a solver bug (or an injected
// FaultPanic) becomes a structured Error result instead of killing the
// process, so one poison chunk cannot take a whole worker down.
//
// When the job carries a TraceID, the worker joins the coordinator's
// trace: the job span is parented under the coordinator's wire-carried
// job span, with the restore and the solve under it.
func (w *worker) runJob(ctx context.Context, m *Message, progress *jobProgress, f *FaultEvent) (reply *Message, cert *Certificate) {
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
	jt, coll := w.jobTracer(m)
	jobSpan := jt.StartRemote("worker_job",
		obs.SpanContext{TraceID: m.TraceID, SpanID: m.ParentSpan},
		obs.KV("job", m.JobID), obs.KV("from", m.From), obs.KV("to", m.To))
	defer func() {
		if trip := new(memTrip); errors.As(context.Cause(ctx), trip) {
			jobSpan.SetAttr("mem_trip", trip.Error())
		}
		if reply.Error != "" {
			jobSpan.End(obs.KV("error", reply.Error))
		} else {
			jobSpan.End(obs.KV("verdict", reply.Verdict))
		}
		reply.Spans = coll.Events()
	}()
	// A straggler, not a corpse: heartbeats keep flowing (with zero
	// progress) while the job sits on its hands, so only the adaptive
	// scheduler — not the liveness monitor — can notice. The sleep aborts
	// promptly on cancel so a split/hedge supersession or a watchdog
	// trip still frees the worker.
	if f != nil && f.Kind == FaultSlow && f.Slow > 0 && !sleepCtx(ctx, f.Slow) {
		reply.Verdict, reply.Cause = sat.Unknown.String(), sat.CauseCancelled.String()
		return reply, nil
	}
	start := time.Now()
	switch {
	case m.RunManifest == nil:
		reply.Error = fmt.Sprintf("distrib: job %d names no run", m.JobID)
		return reply, nil
	case w.shipped == nil:
		// What a coordinator of an earlier build sends: a worker has no
		// template to solve on, and nothing to make one from.
		reply.Error = fmt.Sprintf("distrib: job %d came with no solver template before it on this connection (is the coordinator of another build?)", m.JobID)
		return reply, nil
	}
	key := runKey{template: w.shipped.sum, budget: m.budget(), proofs: m.Certify == CertifyFull || m.Certify == CertifyModel}
	if f != nil && f.Kind == FaultOtherTemplate {
		w.run = nil // a template of its own making, for this job alone
	}
	run, restored, err := w.held(m, key, jobSpan, f)
	if err != nil {
		reply.Error = err.Error()
		return reply, nil
	}
	reply.Restore = restored
	vars := run.tpl.Result().VarsIn
	parts, err := jobCubes(m, vars)
	if err != nil {
		reply.Error = err.Error()
		return reply, nil
	}
	// The template logs proofs whenever the run certifies; a job keeps
	// its cubes' only when the coordinator wants them with this result.
	popts := parallel.Options{
		Workers: w.opts.Cores, KeepProofs: m.Certify == CertifyFull, Budget: key.budget,
		ProgressEvery: liveProgressEvery,
	}
	if progress != nil {
		popts.Progress = progress.update
	}
	solveSpan := jobSpan.Child("solve", obs.KV("partitions", len(parts)), obs.KV("workers", w.opts.Cores))
	res, err := run.tpl.Solve(ctx, parts, popts)
	switch {
	case f != nil && f.Kind == FaultOtherTemplate:
		w.run = nil
	case errors.As(context.Cause(ctx), new(memTrip)):
		// The watchdog wants memory back: the template goes with the cubes'
		// solvers, and the next job restores it from the bytes the
		// connection keeps.
		run.tpl.Drop()
	}
	reply.Millis = time.Since(start).Milliseconds()
	if err != nil {
		solveSpan.End(obs.KV("error", err.Error()))
		reply.Error = err.Error()
		return reply, nil
	}
	solveSpan.End(obs.KV("status", res.Status.String()), obs.KV("winner", res.Winner))
	reply.fold(res)
	certSpan := jobSpan.Child("certify_build", obs.KV("level", m.Certify))
	cert = buildCertificate(res, m.Certify, vars)
	certSpan.End()
	return reply, cert
}

// fold writes a finished job into its result frame: its status and a
// Sat one's winner, the solver's time, and the per-partition search
// statistics, so the coordinator sees the remote search effort (load
// skew, conflict rates) instead of the stats dying with the worker
// process. Each partition's are its own, from the clone on, whichever
// worker ran it and whatever ran there before; its final row rides
// alongside.
func (m *Message) fold(res *parallel.Result) {
	m.Verdict = res.Status.String()
	if res.Status == sat.Sat {
		// res.Winner is the absolute partition index.
		m.Winner = res.Winner
	}
	m.SolveMillis = res.Wall.Milliseconds()
	var agg sat.Stats
	var cause sat.StopCause
	for _, inst := range res.Instances {
		agg.Add(inst.Stats)
		cause = cause.Worse(inst.Cause)
		m.Parts = append(m.Parts, report.PartitionRowOf(inst))
	}
	if res.Status == sat.Unknown {
		// Name the dominant exhausted budget (sat.StopCause.Worse) so the
		// coordinator can tell a terminal budgeted Unknown (re-running
		// gives up again) from a retryable one: a mid-solve cancel (hedge
		// loser, split supersession), which it discards without charging
		// the attempt budget.
		m.Cause = cause.String()
	}
	m.Stats = &agg
}

// otherTemplate is FaultOtherTemplate's template: the shipped one with
// a clause of the worker's own added at the top level — the unit of the
// first variable the template froze for the run's cubes that the job's
// assumptions leave open, as if the worker had fixed for every cube a
// bit a split fixes. The proofs of a cube's search on it are honest for
// that clause set, and refused by the coordinator's checker at the
// first lemma that leans on the unit.
func otherTemplate(data []byte, assume [][]cnf.Lit) ([]byte, error) {
	s, err := sat.Restore(data, sat.Options{})
	if err != nil {
		return nil, err
	}
	assumed := map[cnf.Var]bool{}
	for _, lits := range assume {
		for _, l := range lits {
			assumed[l.Var()] = true
		}
	}
	for v := cnf.Var(1); int(v) <= s.NumVars(); v++ {
		if s.Frozen(v) && !assumed[v] {
			s.AddClause(cnf.PosLit(v))
			break
		}
	}
	return s.Snapshot(), nil
}
