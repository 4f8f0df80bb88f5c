package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
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
	// loaded and when the cubes were cloned from it; they differ by what
	// the pass did.
	ClausesIn, ClausesOut int
	// Cubes is the number of cubes this call solved on the template or a
	// clone.
	Cubes int
}

// Template is the solver a run's cubes take theirs from, for a caller
// that holds it across calls: a distributed worker, which is handed the
// run's cubes a job at a time, and the coordinator, which wants what the
// same solver logged. It is a function of the formula, the run's whole
// partition list, the split literals and the budget — of nothing that
// differs between two processes that were told the same run — so two of
// them build the same clause set and the same proof log, lemma for lemma.
// The solver is built by the first call that needs it.
//
// Solve and Simulate (the functions) use one that lasts the call.
type Template struct {
	f     *cnf.Formula
	parts []partition.Partition
	// opts are the options of Prepare, of which Budget, the proof
	// switches, SplitLits, Split and ProgressEvery shape the solver; a
	// call's own must agree on those.
	opts Options
	// held: the template outlives the call and is sized for the run, one
	// cube per partition; otherwise for the cubes the call found queued.
	held bool

	// digestOnly: what the solver logs is hashed, not kept; see
	// DigestPrefix. loadOnce: see LoadOnce.
	digestOnly bool
	loadOnce   bool

	mu     sync.Mutex
	solver *sat.Solver // nil until built, and again after Drop
	built  TemplateResult
	digest sat.ProofDigest // of what solver logged, when digestOnly
	// The run's one proof checker (Check); prefix, what the solver logged
	// before the first clone, unless digested; derr, that log does not
	// check; reported, the checker's counters as Check last handed out.
	prefix   *sat.Proof
	checker  *sat.ProofChecker
	derr     error
	reported sat.ProofCheckerStats
}

// Prepare returns the template of the run that solves f under parts —
// all of the run's partitions, whichever of them a call is then handed —
// without building it yet.
func Prepare(f *cnf.Formula, parts []partition.Partition, opts Options) *Template {
	return newTemplate(f, parts, opts, true)
}

func newTemplate(f *cnf.Formula, parts []partition.Partition, opts Options, held bool) *Template {
	return &Template{f: f, parts: parts, opts: opts.withDefaults(), held: held}
}

// loadTemplate loads f into the solver a run under opts takes its cubes'
// solvers from. The budget's conflict and memory bounds are the solver's
// own, and every clone's; its wall-clock bound is runCube's timer.
func loadTemplate(f *cnf.Formula, opts *Options) *sat.Solver {
	s := sat.NewFromFormula(f, sat.Options{
		MaxConflicts:  opts.Budget.Conflicts,
		MemBudgetMB:   opts.Budget.MemMB,
		ProgressEvery: opts.ProgressEvery,
	})
	if opts.CertifyUnsat || opts.KeepProofs {
		s.EnableProof()
	}
	return s
}

// freezeCubeVars freezes every variable a cube of the run can assume —
// those of the partitions' assumptions and of the split literals, which
// the children of a split fix — so that the simplification pass leaves
// them to the cubes. All of them, not those of the cubes still to be
// solved: the template of a resumed run is then the first run's, and a
// worker's the coordinator's.
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
// solver is the call's only cube's, to be solved on as it is. fresh: this
// call built it. A template that has neither solver nor formula left
// (LoadOnce, then a build cut short or a Drop) has none to give: nil.
func (t *Template) get(queued int, watch func(*sat.Solver) (done func())) (s *sat.Solver, own, fresh bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.solver != nil || t.f == nil {
		return t.solver, false, false
	}
	start := time.Now()
	s = loadTemplate(t.f, &t.opts)
	t.built = TemplateResult{ClausesIn: s.NumClauses()}
	cubes := queued
	if t.held {
		cubes = len(t.parts)
	}
	// A run of one cube that cannot be split solves it on the template
	// itself, un-simplified and with nothing frozen beyond what Solve
	// freezes: sat.NewFromFormula + Solve(assumptions) to the counter,
	// which is what a one-partition job is everywhere else (the
	// benchmark's traced pass) and what the in-search trigger was tuned
	// on. The solver is used up by it and never kept.
	own = t.single(cubes)
	whole := true
	var digester *sat.ProofDigester
	var checker *sat.ProofChecker
	if !own {
		if t.digestOnly && s.ProofLog() != nil {
			digester = sat.NewProofDigester()
			if t.opts.CertifyUnsat && t.checker == nil {
				checker, _ = t.derive(nil) // the log streams in below
			}
			s.StreamProof(func(deleted bool, clause []uint32) {
				digester.Step(deleted, clause)
				if checker != nil {
					checker.ExtendStep(deleted, clause)
				}
			})
		}
		if t.loadOnce {
			t.f = nil
		}
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
	t.built.Stats, t.built.ClausesOut = s.Stats(), s.NumClauses()
	t.built.Time = time.Since(start)
	if whole && !t.digestOnly {
		t.prefix = &sat.Proof{} // a cube solved on the template logs all of its proof
		if !own {
			t.prefix = s.ProofLog()
		}
	}
	// A pass cut short leaves a solver good for the call that is ending,
	// and for no other: the next call builds the template again.
	if t.held && !own && whole {
		t.solver = s
		if digester != nil {
			t.digest = digester.Sum()
		}
		if checker != nil {
			t.checker, t.derr = checker, checker.ExtendDone()
		}
	}
	return s, own, true
}

// Prefix returns what the template's solver logged before any cube was
// cloned from it — the derivations and deletions of its simplification
// pass, which every cube's proof continues (sat.JoinProofs,
// sat.ProofChecker.Extend) — building the template first if it has to;
// ctx interrupts that. The log is empty for a run whose only cube is
// solved on the template itself, whose proof is its own from the start.
func (t *Template) Prefix(ctx context.Context) (*sat.Proof, error) {
	if t.digestOnly {
		return nil, fmt.Errorf("parallel: template: the prefix is digested, not kept")
	}
	if t.single(len(t.parts)) {
		return &sat.Proof{}, nil
	}
	s, err := t.build(ctx)
	if err != nil {
		return nil, err
	}
	return s.ProofLog(), nil
}

// DigestPrefix, called before the template is built, has it hash what
// Prefix would return instead of keeping it — tens of thousands of
// clauses that the holder of a distributed run's template never reads
// twice — and, if it certifies, extend its checker (Check) by each step
// as the solver logs it (sat.Solver.StreamProof). PrefixDigest is then
// all there is to ask for.
func (t *Template) DigestPrefix() { t.digestOnly = true }

// PrefixDigest is the digest of Prefix, building the template first if
// it has to; an error too if it certifies and its log does not check.
func (t *Template) PrefixDigest(ctx context.Context) (sat.ProofDigest, error) {
	if !t.digestOnly {
		p, err := t.Prefix(ctx)
		return p.Digest(), err
	}
	if t.single(len(t.parts)) {
		return (*sat.Proof)(nil).Digest(), nil
	}
	if _, err := t.build(ctx); err != nil {
		return sat.ProofDigest{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.digest, t.derr
}

// Check checks tail, the log of a clone of the template (of the template
// itself, for a run's only cube), as a refutation of the formula under
// assume on the run's one proof checker: the formula extended once by
// what the template logged before the clone, at the first Check or, under
// DigestPrefix, as it was logged. Checks take turns behind the template's
// lock; each reports the checker's work since the last, derivation included.
func (t *Template) Check(assume []cnf.Lit, tail *sat.Proof) (work sat.ProofCheckerStats, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.checker == nil {
		prefix := t.prefix
		if t.single(len(t.parts)) {
			prefix = &sat.Proof{} // a template made for one cube has none, built or not
		}
		if t.f == nil || prefix == nil {
			return work, errors.New("parallel: template: no prefix to check against: not built, digested without CertifyUnsat, or its formula let go (LoadOnce)")
		}
		t.checker, t.derr = t.derive(prefix)
	}
	if t.derr != nil {
		return work, fmt.Errorf("parallel: template: its own prefix does not check: %w", t.derr)
	}
	err = t.checker.Check(assume, tail)
	work, t.reported = t.checker.Stats().Since(t.reported), t.checker.Stats()
	return work, err
}

// derive loads the formula into a proof checker extended by prefix.
func (t *Template) derive(prefix *sat.Proof) (*sat.ProofChecker, error) {
	c := sat.NewProofChecker(t.f)
	return c, c.Extend(prefix)
}

// build is get outside a run.
func (t *Template) build(ctx context.Context) (*sat.Solver, error) {
	s, _, _ := t.get(len(t.parts), func(s *sat.Solver) func() {
		stop := context.AfterFunc(ctx, s.Interrupt)
		return func() { stop() }
	})
	switch {
	case s == nil:
		return nil, errSpent
	case s.Interrupted():
		return nil, fmt.Errorf("parallel: template: %w", context.Cause(ctx))
	}
	return s, nil
}

var errSpent = errors.New("parallel: template: it let its formula go (LoadOnce) and holds no solver")

// LoadOnce, called before the template is built, has it let go of the
// formula as soon as its solver holds the clauses — a formula is as big
// as the solver, and the holder of a distributed run's template has no
// other use for it. The price: a template whose build was cut short
// cannot be built again (Ready stays false; its holder prepares another),
// nor can calls on it resume a journal or certify in process, which both
// read the formula.
func (t *Template) LoadOnce() { t.loadOnce = true }

// formula is the run's formula, nil once LoadOnce has let it go: read
// when it is needed, not held, so that it can go.
func (t *Template) formula() *cnf.Formula {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.f
}

// Ready reports that the template holds its solver or what it takes to
// build one.
func (t *Template) Ready() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.solver != nil || t.f != nil
}

// Drop lets go of the solver and its log; the next call builds it again.
func (t *Template) Drop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.solver, t.prefix = nil, nil
}

// buildTemplate gets the run's solver once replay has queued what is
// left to solve.
func (r *runner) buildTemplate() {
	queued := r.sched.Live()
	if queued == 0 || r.ctx.Err() != nil {
		return // no cube will run
	}
	var fresh bool
	r.template, r.own, fresh = r.tpl.get(queued, func(s *sat.Solver) func() {
		rc := &cubeRun{}
		r.register(rc, s)
		return func() {
			r.mu.Lock()
			delete(r.running, rc)
			r.mu.Unlock()
		}
	})
	if r.template == nil {
		r.fail(errSpent)
		return
	}
	r.tpl.mu.Lock()
	r.res.Template = r.tpl.built
	r.tpl.mu.Unlock()
	if !fresh {
		r.res.Template.Time = 0
	}
}
