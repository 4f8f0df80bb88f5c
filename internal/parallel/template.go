package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/partition"
	"repro/internal/sat"
)

// The template is the paper's own economy made literal. Its partitions
// are "the same propositional formula plus a handful of unit
// assumptions", and its solver freezes the partitioning variables
// (Sect. 3.3) so that one formula, simplified once, serves them all. So
// a run loads the formula into one solver, freezes every variable a cube
// of the run can assume, simplifies it once, and gives each cube a
// Clone: a few flat copies in place of a load, and one pass in place of
// one per cube — made, moreover, before any search instead of after
// each cube has searched the un-simplified encoding long enough to pay
// for its own.
//
// Nothing is shared after the fan-out. A cube's search is a function of
// the template and its assumptions, whichever worker runs it, whatever
// ran there before and whenever: its counters are the same under every
// schedule, under Simulate, and re-solved alone out of a journal. That
// is what lets Simulate stay exact, the benchmark hold every counter of
// a partitioned job equal between passes, and a resumed run agree with
// the run it resumes.

// TemplateResult accounts for a run's template solver.
type TemplateResult struct {
	// Time is what the template took before the first cube could start:
	// loading the formula and, where it ran, the simplification pass. It
	// is serial and part of Result.Wall, and of no instance's Time; zero
	// for a call that found its template built (Prepare) by an earlier
	// one.
	Time time.Duration
	// Stats are the template's own counters, from the load and the pass:
	// Stats.ElimVars and Stats.Simplified are what the pass removed for
	// every cube at once (the cubes' own read zero). A run's only cube is
	// solved on the template itself, and its Stats continue these.
	Stats sat.Stats
	// ClausesIn and ClausesOut are the clauses the template held when
	// loaded and when the cubes were cloned from it, VarsIn and VarsOut
	// its variables; they differ by what the pass did.
	ClausesIn, ClausesOut int
	VarsIn, VarsOut       int
	// Cubes is the number of cubes this call solved on the template or a
	// clone.
	Cubes int
}

// Template is the solver a run's cubes take theirs from, for a caller
// that holds it across calls: the coordinator of a distributed run,
// which builds it once for the run, ships its snapshot (Snapshot) and
// checks what the cubes cloned from it logged, and a distributed worker,
// which restores it from that snapshot (Restored) and is handed the run's
// cubes a job at a time. It is a function of the formula, the run's whole
// partition list, the split literals and the budget. The solver is built
// by the first call that needs it, unless it was restored.
//
// Solve and Simulate (the functions) use one that lasts the call.
type Template struct {
	// f is the run's formula until the template's solver and the run's
	// proof checker have loaded it (get), or Restore; from then on again,
	// if there is one, derives it again for the few that read it later
	// (Formula): one rule for every run, certified or plain.
	f     *cnf.Formula
	again func() (*cnf.Formula, error)
	parts []partition.Partition
	// n is the run's partition count, len(parts) unless the template was
	// restored by a caller that holds no partitions (Restored).
	n int
	// opts are the options of Prepare, of which Budget, the proof
	// switches, SplitLits, Split and ProgressEvery shape the solver; a
	// call's own must agree on those.
	opts Options
	// held: the template outlives the call and is sized for the run, one
	// cube per partition; otherwise for the cubes the call found queued.
	held bool
	// vars is the formula's variable count: a snapshot of fewer is of
	// another run.
	vars int

	mu     sync.Mutex
	solver *sat.Solver // nil until built or restored, and again after Drop
	built  TemplateResult
	// own: it was made for its only cube, which is solved on it.
	own bool
	// prefix is the log the cubes' proofs continue (Prefix), as the last
	// build left it: the solver's; for a cube solved on the template, the
	// load's when a certifying run's checker holds it as it holds a
	// pass's — the cube's log starts after it, on the template or on a
	// solver restored from its snapshot — and none when the cube's log
	// goes on from the load's.
	prefix sat.Proof
	// The run's one proof checker (Check), derived by the build beside
	// the pass; derr, what the solver logged before the first clone does
	// not check; reported, the checker's counters as Check last handed
	// out.
	checker  *sat.ProofChecker
	derr     error
	reported sat.ProofCheckerStats
}

// Prepare returns the template of the run that solves f under parts —
// all of the run's partitions, whichever of them a call is then handed —
// without building it yet. The template lets f go once it has loaded it,
// and again gives it back, the same clauses, to whatever reads it after
// that (Formula).
func Prepare(f *cnf.Formula, again func() (*cnf.Formula, error), parts []partition.Partition, opts Options) *Template {
	return newTemplate(f, again, parts, opts, true)
}

// newTemplate is Prepare for the functions Solve and Simulate too, whose
// template lasts the call and whose caller holds f for as long.
func newTemplate(f *cnf.Formula, again func() (*cnf.Formula, error), parts []partition.Partition, opts Options, held bool) *Template {
	if again == nil {
		again = func() (*cnf.Formula, error) { return f, nil }
	}
	return &Template{f: f, again: again, vars: f.NumVars, parts: parts, n: len(parts), opts: opts.withDefaults(len(parts)), held: held, prefix: sat.Proof{}}
}

// Restored returns the template of a run of the given number of
// partitions, restored from data (Restore), for a caller that holds
// neither the formula nor the partitions: a distributed worker, which is
// handed the run's cubes, assumptions and all, a job at a time.
func Restored(data []byte, partitions int, opts Options) (*Template, error) {
	if partitions < 1 {
		return nil, fmt.Errorf("parallel: template: a run of %d partitions", partitions)
	}
	t := &Template{n: partitions, opts: opts.withDefaults(partitions), held: true}
	return t, t.Restore(data)
}

// loadTemplate loads f into the solver a run under opts takes its cubes'
// solvers from, logging from the first clause when the run logs: handing
// the log out to hand as it grows, if hand is not nil. The budget's
// conflict and memory bounds are the solver's own, and every clone's; its
// wall-clock bound is runCube's timer.
func loadTemplate(f *cnf.Formula, opts *Options, hand func(sat.Proof) sat.FlatLog) *sat.Solver {
	s := sat.New(f.NumVars, opts.solverOptions())
	switch {
	case hand != nil:
		s.StreamProof(hand)
	case opts.CertifyUnsat || opts.KeepProofs:
		s.EnableProof()
	}
	s.AddFormula(f)
	return s
}

// solverOptions are the options of the template's solver, and so of
// every clone.
func (o *Options) solverOptions() sat.Options {
	return sat.Options{MaxConflicts: o.Budget.Conflicts, MemBudgetMB: o.Budget.MemMB, ProgressEvery: o.ProgressEvery}
}

// freezeCubeVars freezes every variable a cube of the run can assume —
// those of the partitions' assumptions and of the split literals, which
// the children of a split fix — so that the simplification pass leaves
// them to the cubes. All of them, not those of the cubes still to be
// solved: the template of a resumed run is then the first run's, and
// the one a distributed run ships serves every job.
func freezeCubeVars(s *sat.Solver, parts []partition.Partition, splitLits []cnf.Lit) {
	for _, pt := range parts {
		s.Freeze(pt.Assumptions...)
	}
	s.Freeze(splitLits...)
}

// single reports a template made for one cube that cannot be split: that
// cube is solved on the template itself.
func (t *Template) single(cubes int) bool { return cubes == 1 && !t.opts.splitting() }

// get returns the solver a call takes its cubes' solvers from, building
// it if the template holds none: queued is the number of cubes the call
// has to solve, and watch makes a solver interruptible for as long as
// the pass runs on it, until the func it returns is called. own: the
// solver is the call's only cube's, to be solved on as it is — and a
// restored one it uses up. fresh: this call built it. A restored
// template with no solver left (used up, or Dropped) has nothing to
// build one from: errSpent.
func (t *Template) get(queued int, watch func(*sat.Solver) (done func())) (s *sat.Solver, own, fresh bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.solver != nil {
		s, own = t.solver, t.own
		if own {
			t.solver = nil
		}
		return s, own, false, nil
	}
	f, err := t.formulaLocked()
	if err != nil {
		return nil, false, false, err
	}
	start := time.Now()
	cubes := queued
	if t.held {
		cubes = t.n
	}
	// A run of one cube that cannot be split solves it on the template
	// itself, un-simplified and with nothing frozen beyond what Solve
	// freezes: sat.NewFromFormula + Solve(assumptions) to the counter,
	// which is what a one-partition job is everywhere else (the
	// benchmark's traced pass) and what the in-search trigger was tuned
	// on. The solver is used up by it and never kept.
	own = t.single(cubes)
	// A log that is checked goes to a goroutine of its own (passSink),
	// started before the load: the checker loads beside the solver and
	// takes each stretch of the load and the pass while the solver logs
	// the next.
	var sink *passSink
	var hand func(sat.Proof) sat.FlatLog
	if t.checker == nil && t.opts.CertifyUnsat {
		sink = startPassSink(f, t.opts.KeepProofs)
		defer sink.wait(true, nil) // a panic too ends it
		hand = sink.take
	}
	s = loadTemplate(f, &t.opts, hand)
	t.built = TemplateResult{ClausesIn: s.NumClauses(), VarsIn: s.NumVars()}
	whole := true
	if !own {
		freezeCubeVars(s, t.parts, t.opts.SplitLits)
		// The one place the up-front pass is decided. It is an a-priori
		// bet: the pass costs about 2 µs per clause whether or not the
		// cubes turn out to need it, and with two or more cubes to serve it
		// replaces as many passes, each made only after 40 propagations per
		// clause on the un-simplified encoding — so the bet is lost only by
		// a run whose cubes together cost less than one pass. With proof
		// logging on as without: what the pass derives and what it removes
		// is the head of the log every clone's continues.
		if cubes > 1 {
			// Watched like a cube: cancellation, a memory abort and the
			// "fits the memory budget" rule stop or skip the pass as they
			// would a cube's.
			done := watch(s)
			s.Simplify()
			done()
			whole = !s.Interrupted()
		}
	}
	// A pass cut short leaves a solver good for the call that is ending,
	// and for no other: the next call builds the template again, and
	// derives again.
	if sink != nil {
		sink.wait(!whole, s.ProofLog())
		s.KeepProof(sink.kept)
		if whole {
			t.checker, t.derr = sink.checker, sink.derr
		}
	}
	t.prefix = s.ProofLog()
	switch {
	case own && t.opts.CertifyUnsat:
		s.KeepProof(&sat.FlatLog{}) // the checker holds the load
	case own:
		t.prefix = sat.Proof{} // the cube's log goes on from the load's
	}
	t.built.Stats, t.built.ClausesOut = s.Stats(), s.NumClauses()
	t.built.VarsOut = s.NumVars() - int(t.built.Stats.ElimVars)
	t.built.Time = time.Since(start)
	t.own = own
	if t.held && !own && whole {
		t.solver = s
	}
	// The solver and the checker have loaded the formula: it goes. Those
	// that read it later — a build after a pass cut short or a Drop,
	// Simulate's winner, resume's re-derivation of a journaled
	// counterexample, the coordinator's check of a model against every
	// clause — have it derived again (Formula).
	t.f = nil
	return s, own, true, nil
}

// passSink is where a template build whose log is checked sends it: the
// solver hands out the log of its load and its pass in stretches
// (Solver.StreamProof) to one goroutine, which loads the run's proof
// checker from the formula while the solver loads, then extends it by
// each stretch (Extend) while the solver logs the next, and keeps the
// stretches, appended, when the run keeps proofs (only a kept proof is
// ever joined to them: Prefix). Both copy, so a stretch's buffer goes
// back to the solver (free) once it is extended and kept. The channel is
// bounded, so a build holds at most sinkDepth+2 stretch buffers, about
// 1.4 MiB, however long the log — a new one is made only when none is
// free, every other one then queued or being checked — and the checker
// is a stretch or two — a millisecond or two — behind the pass when it
// ends.
type passSink struct {
	stretches chan sat.Proof
	free      chan sat.FlatLog
	// abort: the build was cut short; nobody will read the checker. done
	// closes when the goroutine has taken every stretch.
	abort  atomic.Bool
	done   chan struct{}
	closed bool

	// Read once done is closed: the checker, derr, its log does not
	// check, and the log, empty unless keep.
	checker *sat.ProofChecker
	derr    error
	keep    bool
	kept    *sat.FlatLog
}

// sinkDepth is the stretches the channel holds: enough to ride out the
// checker's bursts without stalling the pass. The goroutine takes no
// lock, so the build may block on it while it holds the template's.
const sinkDepth = 16

// startPassSink starts the goroutine for a build over f; keep, it keeps
// the log.
func startPassSink(f *cnf.Formula, keep bool) *passSink {
	p := &passSink{
		stretches: make(chan sat.Proof, sinkDepth), free: make(chan sat.FlatLog, sinkDepth+2),
		done: make(chan struct{}), keep: keep, kept: &sat.FlatLog{},
	}
	go p.check(f)
	return p
}

// check loads the checker, extends it by each stretch and, under keep,
// appends the stretch to the kept log, then hands its buffer back. A
// build cut short still keeps the log, as the solver would have.
func (p *passSink) check(f *cnf.Formula) {
	defer close(p.done)
	p.checker = sat.NewProofChecker(f)
	for b := range p.stretches {
		if !p.abort.Load() {
			p.checker.Extend(b)
		}
		if p.keep {
			*p.kept = append(*p.kept, b...)
		}
		select {
		case p.free <- sat.FlatLog(b):
		default:
		}
	}
	if !p.abort.Load() {
		p.derr = p.checker.ExtendDone()
	}
}

// take is the solver's StreamProof callback: it queues b and gives back
// a buffer the goroutine is done with, if there is one.
func (p *passSink) take(b sat.Proof) sat.FlatLog {
	p.stretches <- b
	select {
	case free := <-p.free:
		return free
	default:
		return nil
	}
}

// wait hands rest, the log the solver has not handed out, over and waits
// for the goroutine to have taken it all; abort: the build was cut short,
// and what it logged is not checked. Only the first call does anything.
func (p *passSink) wait(abort bool, rest sat.Proof) {
	if p.closed {
		return
	}
	p.closed = true
	p.abort.Store(abort)
	p.stretches <- rest
	close(p.stretches)
	<-p.done
}

// Prefix returns what the template's solver logged before any cube was
// cloned from it — the units and shortened clauses of its load, the
// derivations and deletions of its simplification pass, which every
// cube's proof continues (appended, or sat.ProofChecker.Extend) —
// building the template first if it has to; ctx interrupts that. For a
// run whose only cube is solved on the template itself it is what a
// certifying template's load logged, and it is empty for a restored
// template, which logged nothing here.
func (t *Template) Prefix(ctx context.Context) (sat.Proof, error) {
	if !t.single(t.n) {
		if _, err := t.build(ctx); err != nil {
			return nil, err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.prefix, nil
}

// Snapshot returns the snapshot of the template's solver
// (sat.Solver.Snapshot), building the template first if it has to; ctx
// interrupts that. It is what a distributed run ships to its workers in
// place of the formula: for a run of two or more cubes, the solver
// simplified once, with every cube variable frozen; for a run's only
// cube, the solver as loaded, its pass left to that cube's search. The
// bytes do not depend on whether the template logs. A template that
// certifies and whose own log does not check has nothing to ship: an
// error. Snapshotting a solver the template holds does not use it up.
func (t *Template) Snapshot(ctx context.Context) ([]byte, error) {
	t.mu.Lock()
	s := t.solver
	t.mu.Unlock()
	if s == nil {
		var err error
		if s, err = t.build(ctx); err != nil {
			return nil, err
		}
	}
	t.mu.Lock()
	derr := t.derr
	t.mu.Unlock()
	if derr != nil {
		return nil, fmt.Errorf("parallel: template: its own prefix does not check: %w", derr)
	}
	return s.Snapshot(), nil
}

// Result accounts for the template as it was last built or restored.
func (t *Template) Result() TemplateResult {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.built
}

// Restore hands the template its solver, restored from data, the
// Snapshot of the template another process built for the same run, in
// place of building it: the formula is never loaded into a solver, the
// pass never made, and the template lets the formula go. Proof logging
// is switched on here when the run logs, so the clones log their tails.
// A restored template that a call used up (its only cube's) or that was
// Dropped holds no solver until it is restored again.
func (t *Template) Restore(data []byte) error {
	start := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.f, t.again = nil, nil // the formula goes before the solver comes
	s, err := sat.Restore(data, t.opts.solverOptions())
	if err != nil {
		return fmt.Errorf("parallel: template: %w", err)
	}
	if s.NumVars() < t.vars {
		return fmt.Errorf("parallel: template: the snapshot has %d variables, the run's formula %d", s.NumVars(), t.vars)
	}
	if t.opts.CertifyUnsat || t.opts.KeepProofs {
		if !s.CanLog() {
			return errors.New("parallel: template: the snapshot has no clause IDs to log a proof with: its template logged none")
		}
		s.EnableProof()
	}
	t.solver, t.own, t.prefix = s, t.single(t.n), sat.Proof{}
	t.built = TemplateResult{Time: time.Since(start), Stats: s.Stats(), ClausesIn: s.NumClauses(), ClausesOut: s.NumClauses(),
		VarsIn: s.NumVars(), VarsOut: s.NumVars() - int(s.Stats().ElimVars)}
	return nil
}

// Check checks tail, the proof log (sat.Solver.ProofLog) of a clone of
// the template (of the template itself, for a run's only cube), as a
// refutation of the formula under assume on the run's one proof checker:
// the formula extended by what the template logged before the clone, as
// the build logged it (get), or for a run's only cube the formula alone.
// Checks take turns behind the template's lock; each reports the
// checker's work since the last, derivation included.
func (t *Template) Check(assume []cnf.Lit, tail sat.Proof) (work sat.ProofCheckerStats, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.checker == nil {
		return work, errors.New("parallel: template: no proof checker: not built, built without CertifyUnsat or cut short, or restored")
	}
	if t.derr != nil {
		return work, fmt.Errorf("parallel: template: its own prefix does not check: %w", t.derr)
	}
	err = t.checker.Check(assume, tail)
	work, t.reported = t.checker.Stats().Since(t.reported), t.checker.Stats()
	return work, err
}

// build is get outside a run.
func (t *Template) build(ctx context.Context) (*sat.Solver, error) {
	s, _, _, err := t.get(t.n, func(s *sat.Solver) func() {
		if ctx.Err() != nil {
			s.Interrupt() // now: AfterFunc's goroutine can lose to a short pass
		}
		stop := context.AfterFunc(ctx, s.Interrupt)
		return func() { stop() }
	})
	switch {
	case err != nil:
		return nil, err
	case s.Interrupted():
		return nil, fmt.Errorf("parallel: template: %w", context.Cause(ctx))
	}
	return s, nil
}

var errSpent = errors.New("parallel: template: holds no solver and no formula to build one from (restored): restore it again")

// Formula returns the run's formula: the one the template was prepared
// with, until its solver and the run's checker have loaded it, and from
// then on the one Prepare's again derives, for a reader that needs every
// clause after the build. It is read when it is needed, not held, so
// that it can go. A restored template has none: errSpent.
func (t *Template) Formula() (*cnf.Formula, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.formulaLocked()
}

func (t *Template) formulaLocked() (*cnf.Formula, error) {
	switch {
	case t.f != nil:
		return t.f, nil
	case t.again == nil:
		return nil, errSpent
	}
	f, err := t.again()
	if err != nil {
		return nil, fmt.Errorf("parallel: template: the run's formula: %w", err)
	}
	return f, nil
}

// Ready reports that the template holds its solver or what it takes to
// build one: false for a restored template used up or Dropped.
func (t *Template) Ready() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.solver != nil || t.again != nil
}

// Drop lets go of the solver, but not of the prefix its build logged
// (Prefix); the next call builds it again (a template whose formula is
// gone: holds none until it is restored again).
func (t *Template) Drop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.solver = nil
}

// buildTemplate gets the run's solver once replay has queued what is
// left to solve.
func (r *runner) buildTemplate() {
	queued := r.sched.Live()
	if queued == 0 || r.ctx.Err() != nil {
		return // no cube will run
	}
	var fresh bool
	var err error
	r.template, r.own, fresh, err = r.tpl.get(queued, func(s *sat.Solver) func() {
		rc := &cubeRun{}
		r.register(rc, s)
		return func() {
			r.mu.Lock()
			delete(r.running, rc)
			r.mu.Unlock()
		}
	})
	if err != nil {
		r.fail(err)
		return
	}
	r.tpl.mu.Lock()
	r.res.Template = r.tpl.built
	r.tpl.mu.Unlock()
	if !fresh {
		r.res.Template.Time = 0
	}
}
