package parallel

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/partition"
	"repro/internal/sat"
)

// cubeRun is the interrupt state of one acquired cube (guarded by
// runner.mu): its solver once that is loaded, and a cancel that arrived
// before — which registration then delivers.
type cubeRun struct {
	solver    *sat.Solver
	cancelled bool
}

// runner is the goroutine executor of the cube scheduler
// (partition.Scheduler): Options.Workers goroutines acquire cubes —
// seeded with the leaves of the journal's cube tree, one whole-partition
// cube each on a fresh run — solve each on a clone of the run's template
// solver (template.go), and claim the verdict. Cancelling a cube is
// solver.Interrupt. Which cube an idle worker gets, which straggler it
// splits and whose result still counts is the scheduler's business; with
// splitting off no cube ever qualifies as a victim, and the queue is the
// paper's static partition list.
//
// Soundness of a split: the two children fix the same split literal in
// both polarities on top of the parent's assumptions, so they partition
// the parent's assumption space exactly — both UNSAT refutes the
// parent, any SAT model satisfies it.
//
// What a decided cube means for the run — resume, the journal, the
// verdict — is the scheduler's ledger (partition/ledger.go); the runner
// keeps the solvers, the models and the per-partition InstanceResults.
type runner struct {
	tpl   *Template
	opts  Options
	parts map[int]partition.Partition // by index
	// race makes the first SAT verdict cancel the rest of the run.
	// Simulate switches it off: its event simulation needs every
	// partition's verdict and solve time.
	race  bool
	sched *partition.Scheduler
	// ctx ends the run: the caller gave up, a SAT leaf won the race, or
	// fail recorded an error.
	ctx    context.Context
	cancel context.CancelFunc

	// template is tpl's solver, the formula loaded once (template.go),
	// from which each cube's solver is cloned; nil when replay left nothing
	// to solve. own: the run's only cube is solved on the template itself.
	template *sat.Solver
	own      bool

	mu      sync.Mutex
	running map[*cubeRun]bool
	leaves  map[int][]InstanceResult // decided leaf cubes by partition index
	err     error                    // first failure: solver panic, journal failure, bad proof
	res     *Result
}

// splitting reports that the run may split a straggler's cube in process.
func (o *Options) splitting() bool { return o.Split.Depth > 0 && len(o.SplitLits) > 0 }

// withDefaults arms what a run of parts partitions under opts cannot do
// without.
func (o Options) withDefaults(parts int) Options {
	if o.splitting() && o.ProgressEvery <= 0 {
		// The hardness signal that steers splitting rides on the progress
		// cadence, which is the solver's own: a default when the caller set
		// none.
		o.ProgressEvery = 512
	}
	// More workers than there can be cubes would only sleep. With
	// splitting on a partition is up to 1<<Depth leaf cubes, and it takes
	// an idle worker to split a straggler — one worker per partition
	// would never be idle before the end.
	if o.Workers <= 0 {
		o.Workers = parts
	}
	if o.splitting() {
		parts <<= min(o.Split.Depth, 16)
	}
	o.Workers = min(o.Workers, parts)
	return o
}

// run solves the given partitions, all or some of the template's, with
// opts.Workers workers and folds the leaf verdicts into one
// InstanceResult per partition, in parts order.
func (t *Template) run(ctx context.Context, parts []partition.Partition, opts Options, race bool) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("parallel: no partitions")
	}
	start := time.Now()
	opts = opts.withDefaults(len(parts))
	r := &runner{
		tpl: t, opts: opts, race: race,
		parts:   make(map[int]partition.Partition, len(parts)),
		running: map[*cubeRun]bool{},
		leaves:  make(map[int][]InstanceResult, len(parts)),
		res:     &Result{Winner: -1},
	}
	sopts := partition.SchedOptions{
		Journal: opts.Journal, Budget: opts.Budget,
		// Without the split literals a cube path has no meaning here.
		Paths:         len(opts.SplitLits) > 0,
		CertifiedOnly: opts.CertifyUnsat,
	}
	if opts.splitting() {
		sopts.SplitPolicy, sopts.SplitBits = opts.Split, len(opts.SplitLits)
	}
	r.sched = partition.NewScheduler(sopts)
	r.ctx, r.cancel = context.WithCancel(ctx)
	defer r.cancel()

	if err := r.replay(parts); err != nil {
		return nil, err
	}
	defer context.AfterFunc(r.ctx, r.interruptAll)()

	r.buildTemplate()
	var wg sync.WaitGroup
	for i := 0; i < opts.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work()
		}()
	}
	wg.Wait()
	if r.err != nil {
		return nil, r.err
	}
	// Whatever is still queued was never started and reports cancelled.
	for _, c := range r.sched.Close() {
		r.leaves[c.From] = append(r.leaves[c.From], InstanceResult{
			Partition: c.From, Status: sat.Unknown, Cause: sat.CauseCancelled,
		})
	}
	// One InstanceResult per partition, folded from its leaves.
	for _, pt := range parts {
		leaves := r.leaves[pt.Index]
		inst := foldLeaves(pt.Index, leaves)
		if opts.KeepProofs && inst.Status == sat.Unsat && len(leaves) > 1 {
			return nil, fmt.Errorf("parallel: KeepProofs: partition %d was split into %d cubes and has no single refutation proof (run KeepProofs without Split.Depth)", pt.Index, len(leaves))
		}
		if inst.Proof != nil && !t.held {
			// The template ends with the call, which alone wrote its prefix: a
			// kept proof leaves whole, the template's log and then the cube's
			// (capped: a copy, never nil).
			inst.Proof = append(r.tpl.prefix, inst.Proof...)
		}
		r.res.Instances = append(r.res.Instances, inst)
	}
	sum := r.sched.Summary()
	r.res.Status = sum.Status()
	if r.res.Status != sat.Sat && ctx.Err() != nil {
		r.res.Status = sat.Unknown
	}
	r.res.Resumed, r.res.Splits, r.res.MaxCubeDepth = sum.Resumed, sum.Splits, sum.MaxDepth
	r.res.JournalSealed, r.res.JournalSealCause = sum.SealCause != "", sum.SealCause
	r.res.Certified = opts.CertifyUnsat
	r.res.Wall = time.Since(start)
	return r.res, nil
}

// replay seeds the run through the scheduler's intake before any worker
// starts: the leaves it queued are the run's work, the committed verdicts
// it folded become resumed leaves of their partitions.
func (r *runner) replay(parts []partition.Partition) error {
	roots := make([]partition.Cube, len(parts))
	for i, pt := range parts {
		roots[i] = partition.Cube{From: pt.Index, To: pt.Index}
		r.parts[pt.Index] = pt
	}
	for _, leaf := range r.sched.Resume(roots) {
		pt, rec := r.parts[leaf.Cube.From], leaf.Rec
		inst := InstanceResult{
			Partition: pt.Index,
			Status:    sat.Unknown,
			Cause:     sat.ParseStopCause(rec.Cause),
			Resumed:   true,
			Time:      time.Duration(rec.Millis) * time.Millisecond,
		}
		var model []bool
		switch {
		case rec.Unsat():
			inst.Status = sat.Unsat
		case rec.Sat():
			inst.Status = sat.Sat
			if r.res.Winner < 0 {
				var err error
				f, err := r.tpl.Formula()
				if err != nil {
					return err
				}
				if model, err = rederive(f, pt, leaf.Cube.Path, r.opts.SplitLits); err != nil {
					return err
				}
			}
		}
		// In race mode a replayed SAT verdict cancels the run here, and
		// the queued cubes report cancelled — exactly as if a live sibling
		// had won.
		r.record(inst, model)
	}
	return nil
}

// rederive recovers the model of a SAT verdict that came without one —
// the journal stores no model — by re-solving its cube without any
// budget: the verdict is already durable, and a re-solve cut short by
// this run's (possibly smaller) budget would demote a committed
// counterexample to Unknown. A SAT verdict that does not re-derive means
// the journal and the formula disagree; refusing the run beats silently
// reporting UNSAT over a durably recorded counterexample. It loads a
// solver of its own rather than clone the template, which carries the
// run's budget and, on the replay path, is yet to be built — and will
// not be, since a replayed SAT verdict ends the run.
func rederive(f *cnf.Formula, pt partition.Partition, path string, splitLits []cnf.Lit) ([]bool, error) {
	assume, err := pt.CubeAssumptions(path, splitLits)
	if err != nil {
		return nil, err
	}
	solver := sat.NewFromFormula(f, sat.Options{})
	st, serr := solver.Solve(assume...)
	if serr != nil || st != sat.Sat {
		return nil, fmt.Errorf("parallel: SAT verdict for partition %d cube %q failed to re-derive its model (status %v, err %v); refusing to continue against a disagreeing journal", pt.Index, path, st, serr)
	}
	return solver.Model(), nil
}

// work is one worker's loop: acquire a cube — queued, or the stolen
// child of a straggler this worker just split — and run it, until the
// run is cancelled or no live leaf is left.
func (r *runner) work() {
	for r.ctx.Err() == nil {
		rc := &cubeRun{}
		a := r.sched.Acquire("", func(*partition.Assignment) { r.cancelCube(rc) })
		if a == nil {
			if err := r.sched.Summary().Err; err != nil {
				r.fail(err) // a SPLIT record the journal would not take
			}
			return
		}
		r.runCube(a, rc)
	}
}

// runCube solves one acquired cube and files its outcome: the only
// place a cube gets its solver and its result is classified.
func (r *runner) runCube(a *partition.Assignment, rc *cubeRun) {
	pt, path := r.parts[a.Cube.From], a.Cube.Path
	// A panicking solver instance must not take the process down with
	// it: the panic becomes the run's error and cancels the siblings, so
	// callers (and distributed workers in particular) see a structured
	// failure for one poison cube instead of a crash.
	defer func() {
		if p := recover(); p != nil {
			r.fail(fmt.Errorf("parallel: partition %d cube %q solver panicked: %v", pt.Index, path, p))
		}
	}()
	assume, err := pt.CubeAssumptions(path, r.opts.SplitLits)
	if err != nil {
		r.fail(err)
		return
	}
	// The cube's time and counters are its own: the clone and the search,
	// whatever the template cost and whichever cubes ran before.
	started := time.Now()
	solver := r.template
	if !r.own {
		solver = solver.Clone()
	}
	r.instrument(a, solver)
	r.register(rc, solver)

	// Wall-clock budget: a timer interrupt distinguishable from
	// cancellation by the timedOut flag.
	var timedOut atomic.Bool
	if r.opts.Budget.Timeout > 0 {
		timer := time.AfterFunc(r.opts.Budget.Timeout, func() {
			timedOut.Store(true)
			solver.Interrupt()
		})
		defer timer.Stop()
	}
	status, serr := solver.Solve(assume...)
	elapsed := time.Since(started)
	// Release the finished solver now, not when the run returns.
	r.mu.Lock()
	delete(r.running, rc)
	r.res.Template.Cubes++
	r.mu.Unlock()

	inst := InstanceResult{
		Partition: pt.Index,
		Time:      elapsed,
		Stats:     solver.Stats(),
	}
	inst.Status, inst.Cause = sat.Classify(status, serr, timedOut.Load(), r.ctx.Err() != nil)
	if inst.Status == sat.Unknown && !inst.Cause.Budgeted() {
		// Cancelled: the leaf of a run that is ending — unless the cube was
		// split under this worker, and its children carry it now.
		if r.sched.Release(a) {
			r.record(inst, nil)
		}
		return
	}
	// A terminal result counts only if it wins the claim: a cube that was
	// split while it finished is discarded, never journaled.
	if !r.sched.Claim(a) {
		return
	}
	// Under CertifyUnsat a refutation is journaled as certified once the
	// run's checker has passed it.
	certified := inst.Status == sat.Unsat && r.opts.CertifyUnsat
	var tail sat.Proof
	if inst.Status == sat.Unsat && (certified || r.opts.KeepProofs) {
		tail = solver.ProofLog()
	}
	if certified {
		work, cerr := r.tpl.Check(assume, tail)
		r.mu.Lock()
		r.res.CertifyWork.Add(work)
		r.mu.Unlock()
		if cerr != nil {
			r.fail(fmt.Errorf("parallel: partition %d cube %q: UNSAT refutation proof failed to check: %w", pt.Index, path, cerr))
			return
		}
	}
	if inst.Status == sat.Unsat && r.opts.KeepProofs {
		inst.Proof = tail
	}
	// Durable before it is acknowledged in the shared result.
	if err := r.sched.Commit(a, partition.Outcome{
		Status: inst.Status, Winner: pt.Index, Cause: inst.Cause.String(), Millis: elapsed.Milliseconds(),
		Certified: certified,
	}); err != nil {
		r.fail(err)
		return
	}
	var model []bool
	if inst.Status == sat.Sat {
		model = solver.Model()
	}
	r.record(inst, model)
}

// instrument arms one cube's solver with the progress hook, when there
// is someone to hear it: the caller's Progress, and the scheduler's Note
// of the counters that steer splitting, only when splitting is on.
func (r *runner) instrument(a *partition.Assignment, solver *sat.Solver) {
	o, splitting := &r.opts, r.opts.splitting()
	if !splitting && (o.Progress == nil || o.ProgressEvery <= 0) {
		return
	}
	solver.Progress = func(st sat.Stats) {
		if splitting {
			r.sched.Note(a, st.Conflicts, st.Progress)
		}
		if o.Progress != nil {
			o.Progress(a.Cube.From, st)
		}
	}
}

// record files one decided leaf under its partition. The first SAT leaf
// brings the run's model and, in race mode, terminates the other
// instances.
func (r *runner) record(inst InstanceResult, model []bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.leaves[inst.Partition] = append(r.leaves[inst.Partition], inst)
	if inst.Status == sat.Sat && r.res.Winner < 0 {
		r.res.Model, r.res.Winner = model, inst.Partition
		if r.race {
			r.cancel()
		}
	}
}

// fail records the run's first error and cancels every instance.
func (r *runner) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.cancel()
}

// register makes a solver that is about to run interruptible: as the
// cube's (cancelCube) and as one of the run's (interruptAll). A cancel
// that arrived while the solver was being built found nothing to
// interrupt: it is delivered here.
func (r *runner) register(rc *cubeRun, solver *sat.Solver) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rc.solver = solver
	r.running[rc] = true
	if rc.cancelled || r.ctx.Err() != nil {
		solver.Interrupt()
	}
}

// cancelCube stops one cube the scheduler superseded.
func (r *runner) cancelCube(rc *cubeRun) {
	r.mu.Lock()
	rc.cancelled = true
	if rc.solver != nil {
		rc.solver.Interrupt()
	}
	r.mu.Unlock()
}

// interruptAll stops every live solver when the run ends, and releases
// the idle workers.
func (r *runner) interruptAll() {
	r.mu.Lock()
	for rc := range r.running {
		rc.solver.Interrupt()
	}
	r.mu.Unlock()
	r.sched.Close()
}

// foldLeaves merges the leaf-cube results of one partition. Statuses
// compose by the cube-tree argument (children partition the parent's
// assumption space); budgets compose pessimistically — the partition is
// only as decided as its least decided leaf, and an Unknown picks the
// most severe leaf cause (sat.StopCause.Worse). Stats and times sum;
// Resumed holds only when every leaf replayed from the journal; a
// partition solved whole keeps its leaf's proof.
func foldLeaves(idx int, leaves []InstanceResult) InstanceResult {
	out := InstanceResult{Partition: idx, Status: sat.Unsat, Cubes: len(leaves), Resumed: true}
	if len(leaves) == 1 {
		out.Proof = leaves[0].Proof
	}
	for _, l := range leaves {
		out.Time += l.Time
		out.Stats.Add(l.Stats)
		if !l.Resumed {
			out.Resumed = false
		}
		switch l.Status {
		case sat.Sat:
			out.Status = sat.Sat
			out.Cause = sat.CauseNone
		case sat.Unknown:
			if out.Status != sat.Sat {
				out.Status = sat.Unknown
				out.Cause = out.Cause.Worse(l.Cause)
			}
		}
	}
	if out.Status != sat.Unknown {
		out.Cause = sat.CauseNone
	}
	return out
}
